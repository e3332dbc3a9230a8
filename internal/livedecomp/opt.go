package livedecomp

import (
	"slices"

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

// optimize rewrites the naive placement (16a) up to level. Every
// rewrite asks one question, flow.holds: does every use still see the
// layouts it saw under the naive placement? A rewrite is kept only if
// it does. Arrays are independent, so each array with a remap is
// solved on its own flow; start is each array's physical layout when
// the unit starts and inherited the arrays whose layout the unit's exit
// hands back to its callers.
func optimize(events []*event, start map[string]decomp.Decomp, inherited map[string]bool, level Level) {
	if level == OptNone {
		return
	}
	flows := map[string]*flow{}
	var order []*flow
	var loops []*ast.Do // innermost first: a loop closes before the loops around it
	for i, e := range events {
		e.seq = int32(i)
		switch e.kind {
		case evRemap:
			if flows[e.array] == nil {
				f := &flow{layouts: []decomp.Decomp{start[e.array]}, exitUse: inherited[e.array]}
				flows[e.array] = f
				order = append(order, f)
			}
		case evLoopEnd:
			loops = append(loops, e.loop)
		}
	}
	for _, e := range events {
		if e.kind >= evLoopBegin {
			for _, f := range order {
				f.events = append(f.events, e)
			}
		} else if f := flows[e.array]; f != nil {
			f.events = append(f.events, e)
		}
	}
	for _, f := range order {
		if !f.intern() {
			continue // too many layouts to track: the naive placement stands
		}
		f.link()
		f.in = f.solve(f.in)
		for i, e := range f.events {
			if e.kind == evUse {
				e.want = f.in[i]
			}
		}
		f.exitWant = f.in[len(f.events)]
		f.live()
		if level >= OptHoist {
			f.hoist(loops)
			f.live() // a hoisted pair may meet, and one of them go
		}
		if level >= OptKills {
			f.kills()
		}
	}
}

// flow is one array's view of a unit: its own events and every control
// marker, in execution order, and the physical layouts that may reach
// each of them. A state is a set of the array's layouts, a bit each,
// interned in layouts; layouts[0] is the one the unit starts with.
type flow struct {
	events   []*event
	layouts  []decomp.Decomp
	exitUse  bool   // the exit reads the layout: an inherited array of a subroutine
	exitWant uint64 // the layouts at the exit under the naive placement
	// successors of events[i] in the real control flow (-1: none);
	// len(events) is the exit
	next, jump []int
	in         []uint64 // layouts on entry to events[i] under the current placement; in[len(events)]: at the exit
	try        []uint64 // holds' solution, which becomes in when the rewrite is kept
	open       []int    // link's scratch
}

// intern numbers the layouts remaps and callees set; false when there
// are more than a state can hold.
func (f *flow) intern() bool {
	for _, e := range f.events {
		if e.kind != evRemap && e.kind != evFinal {
			continue
		}
		e.layout = int32(slices.IndexFunc(f.layouts, e.decomp.Equal))
		if e.layout < 0 {
			e.layout = int32(len(f.layouts))
			f.layouts = append(f.layouts, e.decomp)
		}
	}
	return len(f.layouts) <= 64
}

// link builds the successor edges, anew after events move: fallthrough, both edges of every IF
// (the then branch falls into its ELSE marker, which jumps to the END
// IF), and a DO's zero-trip edge to after its end and back edge from
// its end.
func (f *flow) link() {
	n := len(f.events)
	next, jump := slices.Grow(f.next[:0], n)[:n], slices.Grow(f.jump[:0], n)[:n]
	open := f.open[:0] // unmatched DO, IF and ELSE markers
	for i, e := range f.events {
		next[i], jump[i] = i+1, -1
		switch e.kind {
		case evLoopBegin, evIf:
			open = append(open, i)
		case evElse:
			jump[open[len(open)-1]] = i + 1
			open[len(open)-1] = i
		case evEndIf:
			next[open[len(open)-1]] = i
			open = open[:len(open)-1]
		case evLoopEnd:
			b := open[len(open)-1]
			jump[b], jump[i] = i+1, b+1
			open = open[:len(open)-1]
		}
	}
	f.next, f.jump, f.open = next, jump, open
}

// solve computes into in's storage the least fixed point of the
// forward problem: a live remap or a call sets the array's layout,
// everything else passes it on. Events are visited in order; only a
// back edge that adds a layout sends the walk back to the loop's top.
func (f *flow) solve(in []uint64) []uint64 {
	n := len(f.events)
	in = slices.Grow(in[:0], n+1)[:n+1]
	clear(in)
	in[0] = 1 // layouts[0]
	for i := 0; i < n; i++ {
		e, back := f.events[i], i+1
		out := in[i]
		if e.kind == evFinal || e.kind == evRemap && !e.dead {
			out = 1 << e.layout
		}
		for _, j := range [2]int{f.next[i], f.jump[i]} {
			if j >= 0 && in[j]|out != in[j] {
				in[j] |= out
				back = min(back, j)
			}
		}
		i = back - 1
	}
	return in
}

// holds reports whether the current placement gives every use, and an
// inherited array's exit, the layouts the naive placement gives it, and
// if so makes its solution in. A main program's exit is no use: its
// arrays are read out from their owners under whatever layout they end
// in.
func (f *flow) holds() bool {
	f.try = f.solve(f.try)
	for i, e := range f.events {
		if e.kind == evUse && f.try[i] != e.want {
			return false
		}
	}
	if f.exitUse && f.try[len(f.events)] != f.exitWant {
		return false
	}
	f.in, f.try = f.try, f.in
	return true
}

// live drops, in event order, every remap the placement holds without
// (OptLive, Figure 17): coalesced when the layout before it already is
// its target, dead otherwise. A remap whose next event is a use that
// does not want some other layout reaching the remap stays without a
// solve: that layout comes by a path the remap does not end, so it
// would reach the use.
func (f *flow) live() {
	for i, r := range f.events {
		if r.kind != evRemap || r.dead {
			continue
		}
		if j := f.next[i]; j < len(f.events) && f.events[j].kind == evUse && f.in[i]&^(1<<r.layout)&^f.events[j].want != 0 {
			continue
		}
		r.dead = true
		if !f.holds() {
			r.dead = false
			continue
		}
		r.why = WhyDeadDecomp
		if f.in[i] == 1<<r.layout {
			r.why = WhyCoalesced
		}
	}
}

// hoist moves remaps out of loops, innermost first (OptHoist, §6.2):
// each remap in a loop goes after it, else before it, where the
// placement holds; a move can free another, so each loop is revisited
// until nothing moves.
func (f *flow) hoist(loops []*ast.Do) {
	for _, l := range loops {
		for moved := true; moved; {
			moved = false
			begin, end := f.span(l)
			for i := begin + 1; i < end && !moved; i++ {
				if r := f.events[i]; r.kind == evRemap && !r.dead {
					moved = f.move(i, l, true) || f.move(i, l, false)
				}
			}
		}
	}
}

// span returns the positions of l's markers.
func (f *flow) span(l *ast.Do) (begin, end int) {
	for i, e := range f.events {
		if e.loop == l && e.kind == evLoopBegin {
			begin = i
		} else if e.loop == l && e.kind == evLoopEnd {
			return begin, i
		}
	}
	panic("livedecomp: loop without markers")
}

// move puts the remap at i after loop l or before it — before the
// loop's bounds too, which the loop evaluates after anything placed
// before it — in event order among the remaps already moved there, and
// keeps the move if the placement holds.
func (f *flow) move(i int, l *ast.Do, after bool) bool {
	r := f.events[i]
	to, end := f.span(l)
	moved := func(e *event) bool { return e.kind == evRemap && e.loop == l && e.after == after }
	if after { // past the end marker and the remaps already moved there
		for to = end; to+1 < len(f.events) && moved(f.events[to+1]) && f.events[to+1].seq < r.seq; to++ {
		}
	} else {
		for ; to > 0 && f.events[to-1].kind == evUse && f.events[to-1].stmt == ast.Stmt(l); to-- {
		}
		for ; to > 0 && moved(f.events[to-1]) && f.events[to-1].seq > r.seq; to-- {
		}
	}
	f.shift(i, to)
	if !f.holds() {
		f.shift(to, i)
		return false
	}
	r.loop, r.after, r.why = l, after, WhyHoistBefore
	if after {
		r.why = WhyHoistAfter
	}
	return true
}

// shift moves the event at i to j, the events between closing up, and
// relinks.
func (f *flow) shift(i, j int) {
	r := f.events[i]
	if i < j {
		copy(f.events[i:j], f.events[i+1:j+1])
	} else {
		copy(f.events[j+1:i+1], f.events[j:i])
	}
	f.events[j] = r
	f.link()
}

// kills makes a remap an in-place descriptor update when every use its
// values may reach first overwrites the whole array (OptKills, §6.3).
// This is a question about values, not layouts: a later remap moves
// the values on, and the exit reads them out or returns them.
func (f *flow) kills() {
	f.link()
	seen := make([]bool, len(f.events)+1)
	for i, r := range f.events {
		if r.kind == evRemap && !r.dead && f.firstUsesKill(i, seen) {
			r.inPlace, r.why = true, WhyKilled
		}
	}
}

// firstUsesKill walks forward from the event at i: every path must
// reach a killing use before any other use or the exit, and one must.
func (f *flow) firstUsesKill(i int, seen []bool) bool {
	clear(seen)
	found, stack := false, []int{f.next[i]}
	for len(stack) > 0 {
		j := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if j < 0 || seen[j] {
			continue
		}
		seen[j] = true
		switch {
		case j == len(f.events) || f.events[j].kind == evUse && !f.events[j].killing:
			return false
		case f.events[j].kind == evUse:
			found = true
		default:
			stack = append(stack, f.next[j], f.jump[j])
		}
	}
	return found
}
