package livedecomp

import (
	"math/rand"
	"testing"

	"fortd/internal/ast"
	"fortd/internal/decomp"
)

// randomEvents draws an event list: nested loops and IFs (some with an
// empty branch), uses that read or kill, remaps and callee layouts over
// four arrays, and each array's layout at entry.
func randomEvents(rng *rand.Rand) ([]*event, map[string]decomp.Decomp, map[string]bool) {
	decomps := []decomp.Decomp{
		decomp.NewDecomp(decomp.Block), decomp.NewDecomp(decomp.Cyclic),
		decomp.NewDecomp(decomp.BlockCyclic(2)), decomp.Replicated,
	}
	arrays := []string{"a", "b", "c", "d"}
	var events []*event
	var open []*event // the DO, IF or ELSE marker each open construct is in
	closeOne := func() {
		top := open[len(open)-1]
		open = open[:len(open)-1]
		switch top.kind {
		case evLoopBegin:
			events = append(events, &event{kind: evLoopEnd, loop: top.loop})
		case evIf:
			events = append(events, &event{kind: evElse})
			fallthrough
		case evElse:
			events = append(events, &event{kind: evEndIf})
		}
	}
	for n := rng.Intn(30); n > 0; n-- {
		switch k := rng.Intn(12); {
		case k == 0 && len(open) < 3:
			l := &ast.Do{Var: "k"}
			if rng.Intn(3) == 0 { // a bound reads an array
				events = append(events, &event{kind: evUse, array: arrays[rng.Intn(4)], stmt: l})
			}
			open = append(open, &event{kind: evLoopBegin, loop: l})
			events = append(events, open[len(open)-1])
		case k == 1 && len(open) < 3:
			open = append(open, &event{kind: evIf})
			events = append(events, open[len(open)-1])
		case k == 2 && len(open) > 0 && open[len(open)-1].kind == evIf:
			open[len(open)-1] = &event{kind: evElse}
			events = append(events, open[len(open)-1])
		case k == 3 && len(open) > 0:
			closeOne()
		case k < 7:
			events = append(events, &event{kind: evUse, array: arrays[rng.Intn(4)], killing: rng.Intn(3) == 0})
		case k < 8:
			events = append(events, &event{kind: evFinal, array: arrays[rng.Intn(3)], decomp: decomps[rng.Intn(4)]})
		default:
			events = append(events, &event{kind: evRemap, array: arrays[rng.Intn(3)], decomp: decomps[rng.Intn(4)]})
		}
	}
	for len(open) > 0 {
		closeOne()
	}
	start, inherited := map[string]decomp.Decomp{}, map[string]bool{}
	for _, a := range arrays {
		start[a] = decomps[rng.Intn(4)]
		inherited[a] = rng.Intn(2) == 0
	}
	return events, start, inherited
}

// placed is the order in which the placement runs events: a remap
// hoisted before a loop runs before its bounds, one hoisted after it
// after it, once, whatever the loop's trip count; a dropped one not at
// all.
func placed(events []*event) []*event {
	var out []*event
	hoisted := func(l *ast.Do, after bool) {
		for _, e := range events {
			if e.kind == evRemap && !e.dead && e.loop == l && e.after == after {
				out = append(out, e)
			}
		}
	}
	started := map[*ast.Do]bool{}
	for _, e := range events {
		l, bound := e.stmt.(*ast.Do)
		if e.kind == evLoopBegin {
			l, bound = e.loop, true
		}
		if bound && !started[l] {
			started[l] = true
			hoisted(l, false)
		}
		switch {
		case e.kind == evRemap && (e.dead || e.loop != nil):
		case e.kind == evLoopBegin:
			out = append(out, e)
		case e.kind == evLoopEnd:
			out = append(out, e)
			hoisted(e.loop, true)
		default:
			out = append(out, e)
		}
	}
	return out
}

// state is what the oracle knows on one path set: the layouts each
// array may have, and whether its values may be lost (an in-place
// remap no killing use has followed yet).
type state map[string]map[string]bool

func (s state) clone() state {
	c := state{}
	for a, set := range s {
		c[a] = map[string]bool{}
		for k := range set {
			c[a][k] = true
		}
	}
	return c
}

func (s state) join(o state) (grew bool) {
	for a, set := range o {
		if s[a] == nil {
			s[a] = map[string]bool{}
		}
		for k := range set {
			if !s[a][k] {
				s[a][k], grew = true, true
			}
		}
	}
	return grew
}

// walkOracle runs events[i:] from s up to the marker that closes the
// construct it is in, by structure rather than by edges: a loop's body
// repeats until its entry state stops growing and the loop may run no
// time at all, an IF joins its branches. It records the layouts that
// reach each use (in seen) and returns where it stopped and the state
// there.
func walkOracle(events []*event, i int, s state, seen map[*event]state) (int, state) {
	for ; i < len(events); i++ {
		e := events[i]
		switch e.kind {
		case evLoopEnd, evElse, evEndIf:
			return i, s
		case evUse:
			if seen[e] == nil {
				seen[e] = state{}
			}
			seen[e].join(state{e.array: s[e.array], "lost " + e.array: s["lost "+e.array]})
			if e.killing {
				s["lost "+e.array] = map[string]bool{"no": true}
			}
		case evFinal, evRemap:
			s[e.array] = map[string]bool{e.decomp.Key(): true}
			if e.inPlace {
				s["lost "+e.array] = map[string]bool{"yes": true}
			}
		case evLoopBegin:
			head := s.clone()
			var end int
			for {
				var out state
				end, out = walkOracle(events, i+1, head.clone(), seen)
				if !head.join(out) {
					break
				}
			}
			i, s = end, head
		case evIf:
			j, then := walkOracle(events, i+1, s.clone(), seen)
			if events[j].kind == evElse {
				j, s = walkOracle(events, j+1, s, seen)
			}
			s.join(then)
			i = j
		}
	}
	return i, s
}

// TestPlacementHolds is the ladder's contract, checked by an oracle
// that shares nothing with the solver: over random event lists with
// loops, IFs, callee layouts and killing uses, at every level the
// placement gives every use — and an inherited array's exit — the
// layouts the naive placement gives it, and no value an in-place remap
// loses is read before a killing use overwrites it, nor read out at the
// exit.
func TestPlacementHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	applied := map[string]int{}
	for trial := 0; trial < 3000; trial++ {
		events, start, inherited := randomEvents(rng)
		at := func(events []*event) (map[*event]state, state) {
			s := state{}
			for a, d := range start {
				s[a] = map[string]bool{d.Key(): true}
			}
			seen := map[*event]state{}
			_, exit := walkOracle(events, 0, s, seen)
			return seen, exit
		}
		naive, naiveExit := at(events)
		for _, level := range []Level{OptLive, OptHoist, OptKills} {
			copies := map[*event]*event{}
			opt := make([]*event, len(events))
			for i, e := range events {
				cp := *e
				opt[i], copies[e] = &cp, &cp
			}
			optimize(opt, start, inherited, level)
			seen, exit := at(placed(opt))
			for _, e := range events {
				if e.kind != evUse {
					continue
				}
				got, want := seen[copies[e]], naive[e]
				if !sameSet(got[e.array], want[e.array]) {
					t.Fatalf("trial %d %s: a use of %s sees %v, naively %v", trial, level, e.array, got[e.array], want[e.array])
				}
				if !e.killing && got["lost "+e.array]["yes"] {
					t.Fatalf("trial %d %s: a use of %s reads values an in-place remap lost", trial, level, e.array)
				}
			}
			for a := range start {
				if inherited[a] && !sameSet(exit[a], naiveExit[a]) {
					t.Fatalf("trial %d %s: %s leaves as %v, naively %v", trial, level, a, exit[a], naiveExit[a])
				}
				if exit["lost "+a]["yes"] {
					t.Fatalf("trial %d %s: %s's lost values are read out at the exit", trial, level, a)
				}
			}
			for _, e := range opt {
				if e.kind == evRemap && e.why != "" {
					applied[e.why]++
				}
			}
		}
	}
	for _, why := range []string{WhyDeadDecomp, WhyCoalesced, WhyHoistAfter, WhyHoistBefore, WhyKilled} {
		if applied[why] < 100 {
			t.Errorf("only %d remaps over all trials: %s", applied[why], why)
		}
	}
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
