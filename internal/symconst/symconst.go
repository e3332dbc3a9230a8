// Package symconst implements interprocedural constant propagation for
// formal parameters (the "symbolics & constants" analysis of Table 1,
// in the ParaScope tradition): a scalar formal is a known compile-time
// constant inside a procedure when every call site passes the same
// constant value and the procedure never assigns the formal. Solutions
// propagate top-down over the acyclic call graph, so constants flow
// through chains of calls (main → dgefa → daxpy).
package symconst

import (
	"fortd/internal/acg"
	"fortd/internal/ast"
	"fortd/internal/sideeffect"
)

// Result maps each procedure to the constant environment valid inside
// it: its own PARAMETER constants plus any formals pinned by callers.
type Result map[string]ast.MapEnv

// Env returns the environment for a procedure (nil-safe).
func (r Result) Env(proc string) ast.Env {
	if e, ok := r[proc]; ok {
		return e
	}
	return ast.MapEnv{}
}

// Compute runs the top-down propagation; se is g's side-effect analysis.
func Compute(g *acg.Graph, se *sideeffect.Analysis) Result {
	res := Result{}
	// seed with local PARAMETER constants
	for _, n := range g.TopoOrder() {
		res[n.Proc.Name] = n.Proc.Constants()
	}
	for _, n := range g.TopoOrder() {
		proc := n.Proc
		if len(n.Callers) == 0 || proc.IsMain {
			continue
		}
		assigned := assignedScalars(proc)
		// interprocedural GMOD catches writes through callees precisely
		if sum := se.Summaries[proc.Name]; sum != nil {
			for name := range sum.Mod {
				assigned[name] = true
			}
		}
		env := res[proc.Name]
		for i, formal := range proc.Params {
			if _, isParam := env[formal]; isParam {
				continue // PARAMETER shadows (should not happen)
			}
			sym := proc.Symbols.Lookup(formal)
			if sym == nil || sym.Kind != ast.SymScalar || assigned[formal] {
				continue
			}
			val, ok := commonConstant(n, i, res)
			if ok {
				env[formal] = val
			}
		}
	}
	return res
}

// commonConstant evaluates the i-th actual at every call site of n
// under the caller's (already-solved) environment and reports the
// single shared constant, if any.
func commonConstant(n *acg.Node, i int, res Result) (int, bool) {
	have := false
	val := 0
	for _, site := range n.Callers {
		callerEnv := res[site.Caller.Proc.Name]
		v, ok := ast.EvalInt(site.Bindings[i].Actual, callerEnv)
		if !ok {
			return 0, false
		}
		if have && v != val {
			return 0, false
		}
		have = true
		val = v
	}
	return val, have
}

// assignedScalars collects the scalars a procedure writes directly
// (assignments and loop indices); writes through callees are added
// from the interprocedural GMOD summary by the caller of this helper.
func assignedScalars(proc *ast.Procedure) map[string]bool {
	out := map[string]bool{}
	ast.WalkStmts(proc.Body, func(s ast.Stmt) bool {
		switch st := s.(type) {
		case *ast.Assign:
			if id, ok := st.Lhs.(*ast.Ident); ok {
				out[id.Name] = true
			}
		case *ast.Do:
			out[st.Var] = true
		}
		return true
	})
	return out
}
