package livedecomp

import (
	"fortd/internal/ast"
	"fortd/internal/decomp"
)

// Figure 16 ladder rules, recorded on events for optimization remarks.
const (
	WhyDeadDecomp  = "dead decomposition: no use reaches before the next remap (OptLive, Figure 17)"
	WhyCoalesced   = "the physical decomposition already matches on every incoming path (OptLive coalescing)"
	WhyHoistAfter  = "loop-invariant restore moved after the loop (OptHoist rule 1, §6.2)"
	WhyHoistBefore = "loop-invariant remap moved before the loop (OptHoist rule 2, §6.2)"
	WhyKilled      = "every reachable first use kills the array: descriptor updated in place, no data motion (OptKills, §6.3)"
)

// succ builds the successor relation over the linearized event list:
// sequential fallthrough, plus a back edge from each loop end to the
// event after its loop begin, plus the loop-exit edge.
func succ(events []*event) [][]int {
	begin := map[*ast.Do]int{}
	for i, e := range events {
		if e.kind == evLoopBegin {
			begin[e.loop] = i
		}
	}
	out := make([][]int, len(events))
	for i, e := range events {
		if i+1 < len(events) {
			out[i] = append(out[i], i+1)
		}
		if e.kind == evLoopEnd {
			if b, ok := begin[e.loop]; ok {
				out[i] = append(out[i], b+1)
			}
		}
	}
	return out
}

// eliminateDead removes remap events after which the array is provably
// not used before being remapped again (the dead-decomposition
// elimination of Figure 17). Conditional remaps are never removed and
// never block paths.
func eliminateDead(events []*event) {
	edges := succ(events)
	for i, r := range events {
		if r.kind != evRemap || r.cond || r.dead {
			continue
		}
		if !reachesUse(events, edges, i, r.array) {
			r.dead = true
			r.why = WhyDeadDecomp
		}
	}
}

// reachesUse reports whether, starting after event i, a use of array
// occurs before any (unconditional, live) remap of array.
func reachesUse(events []*event, edges [][]int, i int, array string) bool {
	seen := make([]bool, len(events))
	stack := append([]int(nil), edges[i]...)
	for len(stack) > 0 {
		j := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[j] {
			continue
		}
		seen[j] = true
		e := events[j]
		if e.array == array {
			if e.kind == evUse {
				return true
			}
			if e.kind == evRemap && !e.cond && !e.dead {
				continue // path blocked by an intervening remap
			}
		}
		stack = append(stack, edges[j]...)
	}
	return false
}

// physState is the forward "physical decomposition" lattice value.
type physState struct {
	known bool
	multi bool
	d     decomp.Decomp
}

func (p physState) equal(o physState) bool {
	if p.known != o.known || p.multi != o.multi {
		return false
	}
	if !p.known || p.multi {
		return true
	}
	return p.d.Equal(o.d)
}

func (p physState) merge(o physState) physState {
	switch {
	case !p.known:
		return o
	case !o.known:
		return p
	case p.multi || o.multi:
		return physState{known: true, multi: true}
	case p.d.Equal(o.d):
		return p
	default:
		return physState{known: true, multi: true}
	}
}

// coalesce removes remaps whose target equals the physical
// decomposition on every incoming path (identical live decompositions
// with overlapping ranges collapse to the first, §6.1). Elimination can
// enable further elimination, so it iterates to a fixed point.
//
// Arrays evolve independently in the forward problem and only the
// state of an array at its own remaps is ever asked for, so the index
// space is the arrays that have a live remap event — none, and no work
// at all, in a procedure without dynamic decomposition, however many
// arrays and events it has.
func coalesce(events []*event, entry map[string]decomp.Decomp, proc *ast.Procedure) {
	index := map[string]int{}
	for _, e := range events {
		if e.kind == evRemap && !e.dead {
			if _, ok := index[e.array]; !ok {
				index[e.array] = len(index)
			}
		}
	}
	if len(index) == 0 {
		return
	}
	arrays := make([]int, len(events)) // events[i].array's index, -1 when not tracked
	for i, e := range events {
		arrays[i] = -1
		if a, ok := index[e.array]; ok && e.kind == evRemap {
			arrays[i] = a
		}
	}
	atEntry := make([]physState, len(index))
	for name, a := range index {
		if d, ok := entry[name]; ok {
			atEntry[a] = physState{known: true, d: d}
		}
	}
	edges := succ(events)
	for changed := true; changed; {
		changed = false
		states := physAt(events, edges, arrays, atEntry)
		for i, r := range events {
			if r.kind != evRemap || r.cond || r.dead {
				continue
			}
			st := states[i*len(atEntry)+arrays[i]]
			if st.known && !st.multi && st.d.Equal(r.decomp) {
				r.dead = true
				r.why = WhyCoalesced
				changed = true
			}
		}
	}
}

// physAt computes the physical decomposition of each tracked array
// immediately before each event — state of array a before event i at
// [i*len(atEntry)+a] — as the least fixed point of the forward problem
// over the (cyclic) event graph. arrays[i] is the tracked array a
// remap event i sets, -1 for every other event. A worklist seeded with
// every event in order revisits only events whose input changed.
func physAt(events []*event, edges [][]int, arrays []int, atEntry []physState) []physState {
	n := len(atEntry)
	in := make([]physState, len(events)*n)
	copy(in, atEntry)
	queued := make([]bool, len(events))
	work := make([]int, len(events))
	for i := range work {
		work[i] = i
		queued[i] = true
	}
	for len(work) > 0 {
		i := work[0]
		work = work[1:]
		queued[i] = false
		e := events[i]
		set := -1 // the array this event remaps, if it is a live remap
		if e.kind == evRemap && !e.dead {
			set = arrays[i]
		}
		for _, j := range edges[i] {
			moved := false
			for a := 0; a < n; a++ {
				out := in[i*n+a]
				if a == set {
					if e.cond {
						out = physState{known: true, multi: true}
					} else {
						out = physState{known: true, d: e.decomp}
					}
				}
				if merged := in[j*n+a].merge(out); !merged.equal(in[j*n+a]) {
					in[j*n+a] = merged
					moved = true
				}
			}
			if moved && !queued[j] {
				queued[j] = true
				work = append(work, j)
			}
		}
	}
	return in
}

// hoist applies the two loop-invariant decomposition rules of §6.2:
//
//  1. a remap whose target decomposition is not used within the loop,
//     and which is the last decomposition event for its array in the
//     loop body, moves after the loop;
//  2. a remap that is the first decomposition event for its array in
//     the loop, the only remap of the array there, and whose target is
//     the decomposition required by every use in the loop, moves before
//     the loop.
func hoist(events []*event, entry map[string]decomp.Decomp, proc *ast.Procedure) {
	// loop extents in the linearized list
	type span struct {
		loop     *ast.Do
		from, to int
	}
	var spans []span
	var stack []span
	for i, e := range events {
		switch e.kind {
		case evLoopBegin:
			stack = append(stack, span{loop: e.loop, from: i})
		case evLoopEnd:
			s := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			s.to = i
			spans = append(spans, s)
		}
	}
	// innermost loops first (they close first, so spans is already
	// ordered innermost-out)
	for _, sp := range spans {
		type arrayEvents struct {
			uses   []*event
			remaps []*event
		}
		byArray := map[string]*arrayEvents{}
		for i := sp.from + 1; i < sp.to; i++ {
			e := events[i]
			if e.dead || e.cond {
				continue
			}
			ae := byArray[e.array]
			if ae == nil {
				ae = &arrayEvents{}
				byArray[e.array] = ae
			}
			switch e.kind {
			case evUse:
				ae.uses = append(ae.uses, e)
			case evRemap:
				ae.remaps = append(ae.remaps, e)
			}
		}
		for _, ae := range byArray {
			// rule 1 first: restores not used in the loop move after it
			for _, r := range ae.remaps {
				if r.loop != nil {
					continue // already hoisted by an inner loop pass
				}
				usedInLoop := false
				for _, u := range ae.uses {
					if u.decomp.Equal(r.decomp) {
						usedInLoop = true
					}
				}
				if !usedInLoop && lastEvent(events, sp.from, sp.to, r) {
					r.loop = sp.loop
					r.after = true
					r.why = WhyHoistAfter
				}
			}
			// rule 2: a sole remaining remap matching every use moves
			// before the loop
			var remaining []*event
			for _, r := range ae.remaps {
				if r.loop == nil {
					remaining = append(remaining, r)
				}
			}
			if len(remaining) == 1 && len(ae.uses) > 0 {
				r := remaining[0]
				allUsesMatch := true
				for _, u := range ae.uses {
					if !u.decomp.Equal(r.decomp) {
						allUsesMatch = false
					}
				}
				if allUsesMatch && firstEvent(events, sp.from, sp.to, r) {
					r.loop = sp.loop
					r.after = false
					r.why = WhyHoistBefore
				}
			}
		}
	}
	// hoisting may expose new redundancy
	coalesce(events, entry, proc)
}

// lastEvent reports whether r is the final (live, unconditional) event
// for its array within the span.
func lastEvent(events []*event, from, to int, r *event) bool {
	past := false
	for i := from + 1; i < to; i++ {
		e := events[i]
		if e == r {
			past = true
			continue
		}
		if !past || e.dead || e.cond || e.array != r.array || e.loop != nil {
			continue
		}
		if e.kind == evUse || e.kind == evRemap {
			return false
		}
	}
	return past
}

// firstEvent reports whether r is the first (live, unconditional)
// decomposition event for its array within the span.
func firstEvent(events []*event, from, to int, r *event) bool {
	for i := from + 1; i < to; i++ {
		e := events[i]
		if e == r {
			return true
		}
		if e.dead || e.cond || e.array != r.array || e.loop != nil {
			continue
		}
		if e.kind == evUse || e.kind == evRemap {
			return false
		}
	}
	return false
}

// applyKills marks remaps whose reachable first accesses all overwrite
// the array without reading it (§6.3): the values are dead, so the
// array is remapped in place by updating its descriptor only.
func applyKills(events []*event) {
	edges := succ(events)
	for i, r := range events {
		if r.kind != evRemap || r.dead || r.cond {
			continue
		}
		if allFirstUsesKill(events, edges, i, r.array) {
			r.op = &Op{InPlace: true}
			r.why = WhyKilled
		}
	}
}

// allFirstUsesKill walks forward from event i and checks that every
// first-reached use of array is a killing write (and at least one use
// is reached).
func allFirstUsesKill(events []*event, edges [][]int, i int, array string) bool {
	seen := make([]bool, len(events))
	stack := append([]int(nil), edges[i]...)
	found := false
	for len(stack) > 0 {
		j := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[j] {
			continue
		}
		seen[j] = true
		e := events[j]
		if e.array == array {
			if e.kind == evUse {
				if !e.killing {
					return false
				}
				found = true
				continue // the kill ends this path's first-use search
			}
			if e.kind == evRemap && !e.cond && !e.dead {
				continue
			}
		}
		stack = append(stack, edges[j]...)
	}
	return found
}
