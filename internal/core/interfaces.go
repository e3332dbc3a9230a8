package core

import (
	"fmt"
	"sort"
	"strings"

	"fortd/internal/acg"
	"fortd/internal/ast"
	"fortd/internal/comm"
	"fortd/internal/livedecomp"
	"fortd/internal/partition"
	"fortd/internal/sideeffect"
)

// interfaceString renders a procedure's caller-visible summary
// canonically: the same summaries always produce the same string, so
// recompilation analysis can compare compilations structurally.
func interfaceString(
	planDelayed map[string]*partition.Constraint,
	commDelayed []*comm.Delayed,
	dsum *livedecomp.Summary,
	effects []string,
) string {
	parts := append([]string(nil), effects...)
	for v, c := range planDelayed {
		parts = append(parts, fmt.Sprintf("iter %s %s", v, c.Key()))
	}
	for _, d := range commDelayed {
		parts = append(parts, "comm "+d.String())
	}
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

// inputsString renders everything interprocedural that compiling proc
// consumed: its reaching decompositions and, for every call site, the
// callee's name and interface summary.
func inputsString(
	node *acg.Node,
	reaching map[string]decompSetView,
	interfaces map[string]string,
) string {
	var parts []string
	for v, set := range reaching {
		parts = append(parts, fmt.Sprintf("reach %s %s", v, set.Key()))
	}
	seen := map[string]bool{}
	for _, site := range node.Calls {
		name := site.Callee.Name()
		if seen[name] {
			continue
		}
		seen[name] = true
		parts = append(parts, fmt.Sprintf("callee %s {%s}", name, interfaces[name]))
	}
	sort.Strings(parts)
	return strings.Join(parts, "\n")
}

// decompSetView abstracts the reach.DSet Key method for inputsString.
type decompSetView interface{ Key() string }
