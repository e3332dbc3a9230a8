package livedecomp

import (
	"fortd/internal/acg"
	"fortd/internal/comm"
)

// KillsArray implements the array-kill test of §6.3 using the
// interprocedural section summaries: a call kills the caller-space
// array when the callee (or its descendants) surely overwrites all of
// it (SectionSummary.Kills) and never reads it. Such an array's values
// are dead across the call, so a pending remap may be performed in
// place.
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
	for name := range sum.Kills {
		if site.CallerName(name) == callerArray {
			return true
		}
	}
	return false
}
