package comm

import (
	"fmt"

	"fortd/internal/ast"
	"fortd/internal/explain"
)

// Explain emits the communication-placement decisions of one analyzed
// procedure as optimization remarks: for every nonlocal reference and
// every instantiated callee message, whether it was vectorized (and at
// which level), lifted to the caller, delayed, or left inside a loop —
// with the blocking reason for every missed vectorization.
func Explain(ex *explain.Collector, procName string, res *Result) {
	if !ex.Enabled() {
		return
	}
	add := func(kind explain.Kind, line int, name, format string, args ...any) {
		ex.Add(explain.Remark{Kind: kind, Pass: "comm", Proc: procName, Line: line, Name: name, Msg: fmt.Sprintf(format, args...)})
	}
	for _, acc := range res.Accesses {
		// a callee's message is worded by the callee, at its call
		line, what := acc.Stmt.Pos().Line, fmt.Sprintf("%s of %s %s", acc.Kind, acc.Array, acc.Section)
		delayed, perIter := "%s delayed to callers (delayed instantiation): %s", "%s vectorized into one section message per iteration of loop %s: %s"
		if acc.Site != nil {
			what = fmt.Sprintf("%s for callee %s (%s %s)", acc.Kind, acc.Site.Callee.Name(), acc.Array, acc.Section)
			delayed, perIter = "%s re-delayed to this procedure's callers: %s", "%s vectorized at caller level: one section message per iteration of loop %s (%s)"
		}
		switch {
		case acc.Delay:
			add(explain.Applied, line, "delay", delayed, what, acc.Why)
		case acc.AtLoop != nil && acc.Why == WhyOwnerVaries:
			// still a vectorized section message; the per-iteration
			// placement is forced by the rotating owner, not a
			// vectorization failure
			add(explain.Applied, line, "vectorize", perIter, what, acc.AtLoop.Var, acc.Why)
		case acc.Pipelined:
		case acc.AtLoop != nil:
			add(explain.Missed, line, "vectorize", "%s placed inside loop %s (one message per iteration): %s", what, acc.AtLoop.Var, acc.Why)
		case acc.BeforeLoop != nil:
			add(explain.Applied, line, "vectorize", "%s vectorized at caller level: one message hoisted before loop %s", what, acc.BeforeLoop.Var)
		case acc.Site != nil:
			add(explain.Applied, line, "instantiate", "%s instantiated at the call site", what)
		default:
			add(explain.Applied, line, "vectorize", "%s fully vectorized: hoisted above the loop nest", what)
		}
		if acc.Pipelined || acc.NoPipe != "" {
			ex.Add(pipeRemark(procName, line, acc.AtLoop, acc.Array, acc.Shift, acc.NoPipe))
		}
		if v := acc.Widened; v != "" {
			add(explain.Missed, line, "section", "%s of %s carries the declared extent where its section reads %s: %s is assigned between where the message is placed and the reference", acc.Kind, acc.Array, v, v)
		}
		if acc.NoTo != "" {
			ex.Add(toRemark(procName, line, acc.Array, acc.Section.String(), acc.NoTo))
		}
		if acc.Ring || acc.NoRing != "" {
			ex.Add(ringRemark(procName, line, acc.Array, acc.Section.String(), acc.NoRing))
		}
		if lhs := acc.Against; lhs != nil {
			add(explain.Missed, line, "align", "%s is not aligned with the assigned array: extent %d in blocks of %d against extent %d in blocks of %d, so the same subscript has another owner and the reference is resolved as a %s",
				acc.Array, acc.Dist.Sizes[acc.DistDim], acc.Dist.BlockSize(), lhs.Sizes[lhs.DistDim()], lhs.BlockSize(), acc.Kind)
		}
	}
}

// toRemark words why a broadcast has no "to" clause.
func toRemark(proc string, line int, array, section, why string) explain.Remark {
	return explain.Remark{Kind: explain.Missed, Pass: "comm", Proc: proc, Line: line, Name: "receivers",
		Msg: fmt.Sprintf("broadcast of %s %s reaches every processor, not the owners of what reads it: %s", array, section, why)}
}

// ringRemark words a rotating root's shape: a ring, costed against the
// tree, or the tree because it has no "to" clause (noTo says why).
func ringRemark(proc string, line int, array, section, noTo string) explain.Remark {
	r := explain.Remark{Kind: explain.Applied, Pass: "comm", Proc: proc, Line: line, Name: "ring",
		Msg: fmt.Sprintf("broadcast of %s %s travels along a ring: its first receiver, the next iteration's root, receives after 2α + βw and forwards nothing, "+
			"where a binomial tree over its g members makes it forward first and receive after 2α + βw + (⌈log₂ g⌉ − 1)·α; the last member waits g − 1 flights instead of ⌈log₂ g⌉", array, section)}
	if noTo != "" {
		r.Kind, r.Msg = explain.Missed, fmt.Sprintf("broadcast of %s %s from a rotating root stays a binomial tree, not a ring: it has no to clause to make the next root its first receiver (%s)", array, section, noTo)
	}
	return r
}

// pipeRemark words what pipeline decided for a shift by c that loop
// carries: it goes around the loop, or (why) stays inside, which a
// candidate is told besides the remark for its placement.
func pipeRemark(proc string, line int, loop *ast.Do, array string, c int, why string) explain.Remark {
	r := explain.Remark{Kind: explain.Applied, Pass: "comm", Proc: proc, Line: line, Name: "pipeline"}
	r.Msg = fmt.Sprintf("loop %s pipelined on %s(%s%+d): the predecessor's last %d boundary cells received before the loop, the own sent after it; "+
		"the loop keeps its reduced bounds (one message per processor per entry of the loop, not one per iteration)", loop.Var, array, loop.Var, c, -c)
	if why != "" {
		r.Kind, r.Msg = explain.Missed, fmt.Sprintf("loop %s not pipelined on %s(%s%+d): %s", loop.Var, array, loop.Var, c, why)
	}
	return r
}
