package livedecomp

import (
	"fortd/internal/acg"
	"fortd/internal/ast"
	"fortd/internal/comm"
	"fortd/internal/rsd"
)

// KillsArray implements the array-kill test of §6.3 using the
// interprocedural section summaries: a call kills the caller-space
// array when the callee (or its descendants) writes a section covering
// the entire array and never reads it. Such an array's values are dead
// across the call, so a pending remap may be performed in place.
func KillsArray(site *acg.CallSite, callerArray string, sections map[string]*comm.SectionSummary) bool {
	if site == nil {
		return false
	}
	sum := sections[site.Callee.Name()]
	if sum == nil {
		return false
	}
	// the caller's array under the callee's names: formals, COMMON
	for name := range sum.Reads {
		if site.CallerName(name) == callerArray {
			return false
		}
	}
	for name, writes := range sum.Writes {
		sym := site.Callee.Lookup(name)
		if site.CallerName(name) != callerArray || sym.Kind != ast.SymArray {
			continue
		}
		full := declaredSection(site.Callee.Proc, sym)
		for _, w := range writes {
			if rsd.Contains(w, full) {
				return true
			}
		}
	}
	return false
}

// declaredSection is the whole of sym, an array whose bounds are
// constants under proc's (acg's contract: a formal or a COMMON array).
func declaredSection(proc *ast.Procedure, sym *ast.Symbol) *rsd.Section {
	env := proc.Constants()
	dims := make([]rsd.Dim, len(sym.Dims))
	for i, d := range sym.Dims {
		lo, _ := ast.EvalInt(d.Lo, env)
		hi, _ := ast.EvalInt(d.Hi, env)
		dims[i] = rsd.Range(lo, hi)
	}
	return &rsd.Section{Array: sym.Name, Dims: dims}
}
