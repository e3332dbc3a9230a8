package partition

import (
	"fmt"
	"sort"

	"fortd/internal/ast"
	"fortd/internal/explain"
)

// privateScalar words what the private-scalar rule decided for an
// assignment to the scalar name.
func privateScalar(it *Item, name string) (explain.Kind, string) {
	if it.ScalarWhy != "" {
		return explain.Missed, fmt.Sprintf("%s stays replicated: %s (line %d)", name, it.ScalarWhy, it.UsedAt)
	}
	what := "element"
	if len(it.Dist.Sizes) == 2 {
		what = [2]string{"row", "column"}[it.DistDim]
	}
	return explain.Applied, fmt.Sprintf("%s computed by the owner of %s %s only: every use is under the line-%d guard",
		name, what, ast.Add(ast.Id(it.Sub.Var), ast.Int(it.Sub.Off)), it.UsedAt)
}

// Explain emits the computation-partitioning decisions of one plan as
// optimization remarks: per assignment whether the owner-computes
// constraint reduced a loop's bounds, was delayed to callers, or fell
// back to an ownership guard (with the demotion reason), and per call
// site how arriving callee constraints were instantiated; env holds the
// PARAMETER constants.
func Explain(ex *explain.Collector, procName string, plan *Plan, env ast.Env) {
	if !ex.Enabled() {
		return
	}
	for _, it := range plan.Items {
		// a callee's constraint is worded by the callee, a local one by
		// the array its assignment stores to
		var line int
		var assigned, callee string
		if it.Site != nil {
			line, callee = it.Site.Pos().Line, it.Site.Callee.Name()
		} else {
			line = it.Stmt.Pos().Line
		}
		if it.C != nil {
			assigned = it.C.Array
		}
		if scalar := it.scalar(); scalar != nil && it.Red == nil && (it.C != nil || it.ScalarWhy != "") {
			assigned = scalar.Name
			kind, msg := privateScalar(it, assigned)
			ex.Add(explain.Remark{Kind: kind, Pass: "partition", Proc: procName, Line: line, Name: "private-scalar", Msg: msg})
		}
		switch {
		case it.Red != nil:
			ex.Add(explain.Remark{
				Kind: explain.Applied, Pass: "partition", Proc: procName, Line: line, Name: "reduction",
				Msg: fmt.Sprintf("recognized %s reduction into %s: loop %s partitioned by ownership of %s, global combine after the loop",
					it.Red.Op, it.Red.Var, it.Loop.Var, it.C.Array),
			})
		case it.Loop != nil:
			msg := fmt.Sprintf("bounds of loop %s reduced to the local index set of %s (owner computes)", it.Loop.Var, it.C.Array)
			if callee != "" {
				msg = fmt.Sprintf("callee %s's delayed constraint on %s instantiated: bounds of loop %s reduced", callee, it.Formal, it.Loop.Var)
			}
			ex.Add(reduceBounds(procName, line, it.C, it.Loop, env, msg))
		case it.DelayVar != "":
			msg := fmt.Sprintf("ownership constraint on formal %s delayed to callers (delayed instantiation)", it.DelayVar)
			if callee != "" {
				msg = fmt.Sprintf("callee %s's constraint on %s re-delayed to this procedure's callers via %s", callee, it.Formal, it.DelayVar)
			}
			ex.Add(explain.Remark{Kind: explain.Applied, Pass: "partition", Proc: procName, Line: line, Name: "delay", Msg: msg})
		case it.Guard:
			what, loop := "ownership guard around assignment to "+assigned, "a local loop"
			if callee != "" {
				what, loop = fmt.Sprintf("call to %s guarded by an ownership test on %s", callee, it.Formal), "a caller loop"
			}
			why := it.Why
			if why == "" {
				why = "the constraint cannot be absorbed by " + loop
			}
			ex.Add(explain.Remark{Kind: explain.Missed, Pass: "partition", Proc: procName, Line: line, Name: "guard", Msg: what + ": " + why})
		case it.Why != "":
			// a reduction demoted all the way to replicated execution
			ex.Add(explain.Remark{
				Kind: explain.Missed, Pass: "partition", Proc: procName, Line: line, Name: "replicate",
				Msg: "statement executes replicated on every processor: " + it.Why,
			})
		}
	}
	if len(plan.Delayed) > 0 {
		vars := make([]string, 0, len(plan.Delayed))
		for v := range plan.Delayed {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		for _, v := range vars {
			c := plan.Delayed[v]
			ex.Add(explain.Remark{
				Kind: explain.Note, Pass: "partition", Proc: procName, Name: "delayed-summary",
				Msg: fmt.Sprintf("exports delayed constraint %s ∈ local(%s %s) to its callers",
					v, c.Array, c.Dist.Key()),
			})
		}
	}
}

// reduceBounds is the remark for loop, which carries c: applied where
// it is Reducible, else Missed with the reason.
func reduceBounds(proc string, line int, c *Constraint, loop *ast.Do, env ast.Env, applied string) explain.Remark {
	r := explain.Remark{Kind: explain.Applied, Pass: "partition", Proc: proc, Line: line, Name: "reduce-bounds", Msg: applied}
	n, why := loop.Norm(env), ""
	switch {
	case Reducible(c, loop, env):
		return r
	case n.Step == 0:
		why = fmt.Sprintf("its step %s is not a known constant", loop.Step)
	case n.Step != 1:
		why = fmt.Sprintf("it steps by %d, not 1", n.Step)
	case loop.Returns():
		why = "its body may RETURN, which every processor must meet"
	default:
		why = fmt.Sprintf("%s is distributed %s", c.Array, c.Dist.Key())
	}
	r.Kind, r.Msg = explain.Missed, fmt.Sprintf("bounds of loop %s not reduced: %s; every processor runs every iteration", loop.Var, why)
	return r
}
