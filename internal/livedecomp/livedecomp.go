// Package livedecomp optimizes dynamic data decomposition (§6):
// placement of calls to the array-remapping library routines when
// executable ALIGN/DISTRIBUTE statements change decompositions at run
// time. It implements the full optimization ladder of Figure 16:
//
//	OptNone  — naive placement: remap before and after every call per
//	           the callee's DecompBefore/DecompAfter sets (16a)
//	OptLive  — live decompositions (Figure 17): dead remaps eliminated,
//	           identical live remaps coalesced (16b)
//	OptHoist — loop-invariant decompositions hoisted out of loops (16c)
//	OptKills — array kills remap in place, no data motion (16d)
//
// Like the rest of the compiler, the callee's remapping needs are
// delayed: a procedure that redistributes an inherited array does not
// remap locally; it records DecompBefore/DecompAfter/DecompKill/
// DecompUse summary sets that its callers instantiate and optimize.
package livedecomp

import (
	"fmt"
	"slices"

	"fortd/internal/acg"
	"fortd/internal/ast"
	"fortd/internal/decomp"
	"fortd/internal/explain"
)

// Level selects how aggressively remaps are optimized.
type Level int

const (
	OptNone Level = iota
	OptLive
	OptHoist
	OptKills
)

func (l Level) String() string {
	switch l {
	case OptNone:
		return "none"
	case OptLive:
		return "live"
	case OptHoist:
		return "hoist"
	case OptKills:
		return "kills"
	}
	return "?"
}

// Summary is the per-procedure interprocedural solution of §6.1.
type Summary struct {
	// Use: variables that may use a decomposition reaching P.
	Use map[string]bool
	// Kill: variables that must be dynamically remapped when P runs.
	Kill map[string]bool
	// Before: decomposition each variable must be mapped to before P.
	Before map[string]decomp.Decomp
	// After: decomposition each variable must be restored to after P
	// (the inherited decomposition).
	After map[string]decomp.Decomp
	// Final: the physical decomposition at P's exit when it differs
	// from the inherited one (what the caller's data actually looks
	// like on return until a restore executes).
	Final map[string]decomp.Decomp
}

func newSummary() *Summary {
	return &Summary{
		Use: map[string]bool{}, Kill: map[string]bool{},
		Before: map[string]decomp.Decomp{}, After: map[string]decomp.Decomp{},
		Final: map[string]decomp.Decomp{},
	}
}

// Op is one remap operation to be emitted.
type Op struct {
	Array   string
	To      decomp.Decomp
	InPlace bool // array-kill optimization: update descriptor only
}

// Placement maps remap operations to their insertion anchors; InCall
// lists the arrays each call hands to a callee that may remap them.
type Placement struct {
	BeforeStmt map[ast.Stmt][]*Op
	AfterStmt  map[ast.Stmt][]*Op
	BeforeLoop map[*ast.Do][]*Op
	AfterLoop  map[*ast.Do][]*Op
	InCall     map[ast.Stmt][]string
}

func newPlacement() *Placement {
	return &Placement{
		BeforeStmt: map[ast.Stmt][]*Op{},
		AfterStmt:  map[ast.Stmt][]*Op{},
		BeforeLoop: map[*ast.Do][]*Op{},
		AfterLoop:  map[*ast.Do][]*Op{},
	}
}

// Count returns the number of placed remap operations.
func (p *Placement) Count() int {
	n := 0
	for _, ops := range p.BeforeStmt {
		n += len(ops)
	}
	for _, ops := range p.AfterStmt {
		n += len(ops)
	}
	for _, ops := range p.BeforeLoop {
		n += len(ops)
	}
	for _, ops := range p.AfterLoop {
		n += len(ops)
	}
	return n
}

// RemapsAt yields the arrays remapped just before s, or inside the
// procedure s calls and just after s (comm.RemapsAt).
func (p *Placement) RemapsAt(s ast.Stmt, after bool, yield func(string)) {
	l, _ := s.(*ast.Do)
	ops := [2][]*Op{p.BeforeStmt[s], p.BeforeLoop[l]}
	if after {
		ops = [2][]*Op{p.AfterStmt[s], p.AfterLoop[l]}
		for _, a := range p.InCall[s] {
			yield(a)
		}
	}
	for _, o := range ops {
		for _, op := range o {
			yield(op.Array)
		}
	}
}

// ---------------------------------------------------------------------------
// Event sequence

type eventKind uint8

const (
	evUse   eventKind = iota
	evRemap           // a remap the unit places (16a), which a rewrite may drop or move
	evFinal           // a call returns the array in the layout its callee left (Summary.Final)
	// control markers, shared by every array
	evLoopBegin
	evLoopEnd
	evIf
	evElse
	evEndIf
)

// event is one step in the linearized execution model of a procedure.
// A unit has one per array reference, so the small fields come first
// and pack together.
type event struct {
	kind    eventKind
	killing bool // evUse that overwrites the whole array without reading it
	after   bool // anchor after stmt instead of before
	// the rewrites' verdict
	dead    bool
	inPlace bool
	array   string
	decomp  decomp.Decomp // the layout a remap or a callee sets; the one a use is compiled under
	stmt    ast.Stmt      // anchor
	loop    *ast.Do       // a loop marker's loop; a hoisted remap's anchor
	why     string        // which optimization rule fired (static strings only)
	// the solve's scratch (flow): the event's place in the unit, a
	// remap's or callee's layout among its array's, and the layouts that
	// reach a use under the naive placement
	seq, layout int32
	want        uint64
}

// KillTest decides whether a given call kills (fully overwrites without
// reading) the named caller-space array.
type KillTest func(site *acg.CallSite, callerArray string) bool

// Analyze computes remap placements for proc and its summary for
// callers.
//
//   - entry maps each inherited array to the decomposition flowing in
//     from the caller (unique after cloning).
//   - summaries holds callee summaries (by procedure name).
//   - node resolves call statements to call sites.
//   - killTest implements §6.3's array-kill analysis.
//   - ex, when enabled, receives every remap inserted (with its anchor
//     and whether the array-kill rule made it an in-place descriptor
//     update) and every remap suppressed, naming the Figure 16 ladder
//     rule that fired; nil collects nothing.
func Analyze(
	proc *ast.Procedure,
	node *acg.Node,
	entry map[string]decomp.Decomp,
	summaries map[string]*Summary,
	killTest KillTest,
	level Level,
	ex *explain.Collector,
) (*Placement, *Summary) {
	events, sum, start, inherited := buildEvents(proc, node, entry, summaries, killTest)
	place, remaps := newPlacement(), false
	for _, e := range events {
		remaps = remaps || e.kind == evRemap
		if e.kind == evFinal { // the callee left the array remapped
			if place.InCall == nil {
				place.InCall = map[ast.Stmt][]string{}
			}
			place.InCall[e.stmt] = append(place.InCall[e.stmt], e.array)
		}
	}
	// every optimization rewrites remap events only: without one there
	// is nothing to place or explain
	if !remaps {
		return place, sum
	}
	optimize(events, start, inherited, level)
	for _, e := range events {
		if e.kind != evRemap || e.dead {
			continue
		}
		op := &Op{Array: e.array, To: e.decomp, InPlace: e.inPlace}
		switch {
		case e.loop != nil && !e.after:
			place.BeforeLoop[e.loop] = append(place.BeforeLoop[e.loop], op)
		case e.loop != nil && e.after:
			place.AfterLoop[e.loop] = append(place.AfterLoop[e.loop], op)
		case e.after:
			place.AfterStmt[e.stmt] = append(place.AfterStmt[e.stmt], op)
		default:
			place.BeforeStmt[e.stmt] = append(place.BeforeStmt[e.stmt], op)
		}
	}
	explainEvents(ex, proc.Name, events)
	return place, sum
}

// explainEvents renders the optimized event list as remarks.
func explainEvents(ex *explain.Collector, procName string, events []*event) {
	if !ex.Enabled() {
		return
	}
	for _, e := range events {
		if e.kind != evRemap {
			continue
		}
		line := 0
		switch {
		case e.loop != nil:
			line = e.loop.Pos().Line
		case e.stmt != nil:
			line = e.stmt.Pos().Line
		}
		if e.dead {
			ex.Add(explain.Remark{
				Kind: explain.Applied, Pass: "livedecomp", Proc: procName, Line: line, Name: "remap-suppressed",
				Msg: fmt.Sprintf("remap of %s to %s eliminated: %s", e.array, e.decomp.Key(), e.why),
			})
			continue
		}
		anchor := "before the statement"
		switch {
		case e.loop != nil && e.after:
			anchor = "after loop " + e.loop.Var
		case e.loop != nil:
			anchor = "before loop " + e.loop.Var
		case e.after:
			anchor = "after the statement"
		}
		mode := ""
		if e.why != "" {
			mode = "; " + e.why
		}
		ex.Add(explain.Remark{
			Kind: explain.Note, Pass: "livedecomp", Proc: procName, Line: line, Name: "remap",
			Msg: fmt.Sprintf("remap %s to %s inserted %s%s", e.array, e.decomp.Key(), anchor, mode),
		})
	}
}

// buildEvents linearizes proc into uses, remaps, callee layouts and
// control markers, and computes the summary sets. Remap events are
// generated naively (16a): before/after every call needing a different
// decomposition, and at every executable distribute/align affecting an
// already-used array. It also returns each array's physical layout
// when proc starts — its layout at first use, or for an inherited
// array the caller's, unless proc delegates its first remap to its
// callers (Summary.Before) — and the inherited arrays, whose layout
// proc's exit hands back to its callers.
func buildEvents(
	proc *ast.Procedure,
	node *acg.Node,
	entry map[string]decomp.Decomp,
	summaries map[string]*Summary,
	killTest KillTest,
) ([]*event, *Summary, map[string]decomp.Decomp, map[string]bool) {
	var events []*event
	sum := newSummary()

	// logical reaching decomposition per array during the walk
	logical := map[string]decomp.Decomp{}
	inherited := map[string]bool{}
	firstUseSeen := map[string]bool{}
	for _, s := range proc.Symbols.Symbols() {
		if s.Kind != ast.SymArray {
			continue
		}
		if (s.IsFormal || s.Common != "") && !proc.IsMain {
			if d, ok := entry[s.Name]; ok {
				logical[s.Name] = d
			} else {
				logical[s.Name] = decomp.Replicated
			}
			inherited[s.Name] = true
		} else {
			logical[s.Name] = decomp.Replicated
		}
	}
	entryDecomp := map[string]decomp.Decomp{}
	for k, v := range logical {
		entryDecomp[k] = v
	}
	// alignment bookkeeping mirrors reach.State in miniature
	aligns := map[string]ast.Align{}
	decompSpecs := map[string]decomp.Decomp{}

	addUse := func(arr string, stmt ast.Stmt, killing bool) {
		if _, ok := logical[arr]; !ok {
			return
		}
		events = append(events, &event{
			kind: evUse, array: arr, decomp: logical[arr],
			killing: killing, stmt: stmt,
		})
		if !firstUseSeen[arr] {
			firstUseSeen[arr] = true
			if inherited[arr] {
				if !logical[arr].Equal(entryDecomp[arr]) {
					sum.Before[arr] = logical[arr]
				} else {
					sum.Use[arr] = true
				}
			}
		}
	}
	setDecomp := func(arr string, d decomp.Decomp, stmt ast.Stmt) {
		cur := logical[arr]
		logical[arr] = d
		if cur.Equal(d) {
			return
		}
		if inherited[arr] {
			sum.Kill[arr] = true
			if !firstUseSeen[arr] {
				// change before any use: delayed to the caller, no
				// local remap event
				return
			}
		} else if !firstUseSeen[arr] {
			// initial placement of a local array: no live values yet,
			// so no physical remap — just record the layout
			entryDecomp[arr] = d
			return
		}
		events = append(events, &event{kind: evRemap, array: arr, decomp: d, stmt: stmt})
	}

	exprUses := func(e ast.Expr, stmt ast.Stmt) {
		ast.WalkExpr(e, func(e ast.Expr) {
			if x, ok := e.(*ast.ArrayRef); ok {
				addUse(x.Name, stmt, false)
			}
		})
	}

	var walk func(body []ast.Stmt)
	walk = func(body []ast.Stmt) {
		for _, s := range body {
			switch st := s.(type) {
			case *ast.Assign:
				if lhs, ok := st.Lhs.(*ast.ArrayRef); ok {
					addUse(lhs.Name, st, false)
					for _, sub := range lhs.Subs {
						exprUses(sub, st)
					}
				}
				exprUses(st.Rhs, st)
			case *ast.Do:
				exprUses(st.Lo, st)
				exprUses(st.Hi, st)
				events = append(events, &event{kind: evLoopBegin, loop: st})
				walk(st.Body)
				events = append(events, &event{kind: evLoopEnd, loop: st})
			case *ast.If:
				exprUses(st.Cond, st)
				events = append(events, &event{kind: evIf})
				walk(st.Then)
				events = append(events, &event{kind: evElse})
				walk(st.Else)
				events = append(events, &event{kind: evEndIf})
			case *ast.Distribute:
				applyDistribute(proc, st, aligns, decompSpecs, setDecomp, logical)
			case *ast.Align:
				aligns[st.Array] = *st
				if d, ok := decompSpecs[st.Target]; ok {
					sym := proc.Symbols.Lookup(st.Array)
					rank := 1
					if sym != nil {
						rank = sym.NumDims()
					}
					setDecomp(st.Array, decomp.ApplyAlign(st.Terms, d, rank), st)
				}
			case *ast.Call:
				site := node.Site(st)
				csum := summaries[st.Name]
				if site == nil || csum == nil {
					continue
				}
				translate := site.CallerName
				// remaps required before the call, each followed by a
				// synthetic use: the callee accesses the array under
				// that decomposition. For an inherited array not yet
				// used here, the mapping is delayed to our own callers
				// (the wrapper case): no local event — the synthetic
				// use records the requirement in DecompBefore.
				for formal, d := range csum.Before {
					arr := translate(formal)
					if arr == "" {
						continue
					}
					if !(inherited[arr] && !firstUseSeen[arr]) {
						events = append(events, &event{kind: evRemap, array: arr, decomp: d, stmt: st})
					}
					logical[arr] = d
					killing := killTest != nil && killTest(site, arr)
					addUse(arr, st, killing)
					if inherited[arr] {
						sum.Kill[arr] = true
					}
				}
				// uses inside the callee
				for formal := range csum.Use {
					arr := translate(formal)
					if arr == "" {
						continue
					}
					killing := killTest != nil && killTest(site, arr)
					addUse(arr, st, killing)
				}
				// physical state on return + restore remap after call
				for formal, d := range csum.Final {
					arr := translate(formal)
					if arr == "" {
						continue
					}
					events = append(events, &event{kind: evFinal, array: arr, decomp: d, stmt: st})
					logical[arr] = d
					if inherited[arr] {
						sum.Kill[arr] = true
					}
				}
				for formal, restore := range csum.After {
					arr := translate(formal)
					if arr == "" {
						continue
					}
					events = append(events, &event{kind: evRemap, array: arr, decomp: restore, stmt: st, after: true})
					logical[arr] = restore
				}
			}
		}
	}
	walk(proc.Body)

	// a restore of an inherited array that no later use needs is
	// delegated to our own callers: the array leaves as the callee left
	// it, which the exit below records in Final/After
	restore := func(e *event) bool { return e.kind == evRemap && e.after && inherited[e.array] }
	restores := slices.ContainsFunc(events, restore)
	used, set := map[string]bool{}, map[string]bool{}
	for i := len(events) - 1; i >= 0 && restores; i-- {
		switch e := events[i]; {
		case e.kind == evUse:
			used[e.array] = true
		case restore(e) && !used[e.array]:
			events = slices.Delete(events, i, i+1)
			for j := i - 1; !set[e.array]; j-- {
				if f := events[j]; f.kind == evFinal && f.array == e.array {
					logical[e.array], set[e.array] = f.decomp, true
				}
			}
		case e.kind <= evFinal:
			set[e.array] = true
		}
	}

	// finish the summary: Final/After for arrays whose decomposition
	// differs at exit. An array proc never uses keeps the layout it came
	// in: its DISTRIBUTE was delegated to callers that have nothing to
	// remap it for
	for arr, d := range logical {
		if !inherited[arr] || !firstUseSeen[arr] {
			continue
		}
		if !d.Equal(entryDecomp[arr]) || sum.Kill[arr] {
			sum.Final[arr] = d
			sum.After[arr] = entryDecomp[arr]
		}
	}
	for arr, d := range sum.Before {
		entryDecomp[arr] = d
	}
	return events, sum, entryDecomp, inherited
}

func applyDistribute(
	proc *ast.Procedure,
	st *ast.Distribute,
	aligns map[string]ast.Align,
	decompSpecs map[string]decomp.Decomp,
	setDecomp func(string, decomp.Decomp, ast.Stmt),
	logical map[string]decomp.Decomp,
) {
	d := decomp.NewDecomp(st.Specs...)
	decompSpecs[st.Target] = d
	sym := proc.Symbols.Lookup(st.Target)
	if sym == nil || sym.Kind != ast.SymDecomposition {
		if _, isArray := logical[st.Target]; isArray {
			setDecomp(st.Target, d, st)
		}
	}
	for arr, al := range aligns {
		if al.Target == st.Target {
			asym := proc.Symbols.Lookup(arr)
			rank := 1
			if asym != nil {
				rank = asym.NumDims()
			}
			setDecomp(arr, decomp.ApplyAlign(al.Terms, d, rank), st)
		}
	}
}
