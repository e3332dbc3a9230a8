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
	// map the caller array back to the callee-side name
	calleeName := ""
	for _, b := range site.Bindings {
		if b.ActualName == callerArray {
			calleeName = b.Formal
			break
		}
	}
	if calleeName == "" {
		if s := site.Callee.Proc.Symbols.Lookup(callerArray); s != nil && s.Common != "" {
			calleeName = callerArray
		}
	}
	if calleeName == "" {
		return false
	}
	if len(sum.Reads[calleeName]) > 0 {
		return false
	}
	writes := sum.Writes[calleeName]
	if len(writes) == 0 {
		return false
	}
	sym := site.Callee.Proc.Symbols.Lookup(calleeName)
	if sym == nil || sym.Kind != ast.SymArray {
		return false
	}
	full := declaredSection(site.Callee.Proc, sym)
	if full == nil {
		return false
	}
	for _, w := range writes {
		if rsd.Contains(w, full) {
			return true
		}
	}
	return false
}

func declaredSection(proc *ast.Procedure, sym *ast.Symbol) *rsd.Section {
	env := proc.Constants()
	dims := make([]rsd.Dim, len(sym.Dims))
	for i, d := range sym.Dims {
		lo, okLo := ast.EvalInt(d.Lo, env)
		hi, okHi := ast.EvalInt(d.Hi, env)
		if !okLo || !okHi {
			return nil
		}
		dims[i] = rsd.Range(lo, hi)
	}
	return &rsd.Section{Array: sym.Name, Dims: dims}
}
