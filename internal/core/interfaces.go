package core

import (
	"fmt"
	"sort"
	"strings"

	"fortd/internal/ast"
	"fortd/internal/comm"
	"fortd/internal/livedecomp"
	"fortd/internal/partition"
	"fortd/internal/sideeffect"
)

// interfaceString is the one rendering of a procedure's caller-visible
// interface: one line per scalar effect, delayed iteration set ("iter",
// with the bound array sizes), delayed communication ("comm", every
// field) and decomposition-summary fact, sorted. It is complete — two
// procedures a caller could tell apart render differently — so
// summaryHash hashes it instead of the summaries themselves, and it is
// what Compilation.Interfaces shows.
func interfaceString(
	planDelayed map[string]*partition.Constraint,
	commDelayed []*comm.Delayed,
	dsum *livedecomp.Summary,
	effects []string,
) string {
	parts := append([]string(nil), effects...)
	parts = append(parts, renderPartDelayed(planDelayed)...)
	parts = append(parts, renderDelayedComm(commDelayed)...)
	if dsum != nil {
		parts = append(parts, decompSummaryString(dsum)...)
	}
	sort.Strings(parts)
	return strings.Join(parts, "\n")
}

// scalarEffects renders the scalar formals and COMMON scalars proc or a
// descendant may write and read — what the private-scalar rule of a
// caller's partition asks of it.
func scalarEffects(fx *sideeffect.Analysis, proc *ast.Procedure) []string {
	var parts []string
	add := func(tag string, set map[string]struct{}) {
		for name := range set {
			if sym := proc.Symbols.Lookup(name); sym == nil || sym.Kind == ast.SymScalar && (sym.IsFormal || sym.Common != "") {
				parts = append(parts, tag+name)
			}
		}
	}
	if sum := fx.Summaries[proc.Name]; sum != nil {
		add("mod ", sum.Mod)
		add("ref ", sum.Ref)
	}
	sort.Strings(parts)
	return parts
}

func decompSummaryString(s *livedecomp.Summary) []string {
	var parts []string
	for v := range s.Use {
		parts = append(parts, "use "+v)
	}
	for v := range s.Kill {
		parts = append(parts, "kill "+v)
	}
	for v, d := range s.Before {
		parts = append(parts, fmt.Sprintf("before %s %s", v, d.Key()))
	}
	for v, d := range s.After {
		parts = append(parts, fmt.Sprintf("after %s %s", v, d.Key()))
	}
	for v, d := range s.Final {
		parts = append(parts, fmt.Sprintf("final %s %s", v, d.Key()))
	}
	return parts
}
