package livedecomp

import (
	"math/rand"
	"testing"

	"fortd/internal/ast"
	"fortd/internal/decomp"
)

// oldPhysAt and oldCoalesce are the forward problem as it was solved
// before the indexed form: one map[string]physState per event over
// every array of the procedure, cloned at each remap, swept round-robin
// until nothing changes. Kept as the oracle for coalesce.
func oldPhysAt(events []*event, entry map[string]decomp.Decomp) []map[string]physState {
	edges := succ(events)
	in := make([]map[string]physState, len(events))
	for i := range in {
		in[i] = map[string]physState{}
	}
	if len(events) == 0 {
		return in
	}
	for arr, d := range entry {
		in[0][arr] = physState{known: true, d: d}
	}
	for changed := true; changed; {
		changed = false
		for i, e := range events {
			out := in[i]
			if e.kind == evRemap && !e.dead {
				out = map[string]physState{}
				for k, v := range in[i] {
					out[k] = v
				}
				if e.cond {
					out[e.array] = physState{known: true, multi: true}
				} else {
					out[e.array] = physState{known: true, d: e.decomp}
				}
			}
			for _, j := range edges[i] {
				for arr, st := range out {
					merged := in[j][arr].merge(st)
					if !merged.equal(in[j][arr]) {
						in[j][arr] = merged
						changed = true
					}
				}
			}
		}
	}
	return in
}

func oldCoalesce(events []*event, entry map[string]decomp.Decomp) {
	for changed := true; changed; {
		changed = false
		states := oldPhysAt(events, entry)
		for i, r := range events {
			if r.kind != evRemap || r.cond || r.dead {
				continue
			}
			st := states[i][r.array]
			if st.known && !st.multi && st.d.Equal(r.decomp) {
				r.dead = true
				r.why = WhyCoalesced
				changed = true
			}
		}
	}
}

// TestCoalesceMatchesMapForm runs both solvers over random event
// lists — nested loops, conditional and already-dead remaps, arrays
// with and without an inherited decomposition, arrays that are only
// ever used — and requires the same remaps to die.
func TestCoalesceMatchesMapForm(t *testing.T) {
	decomps := []decomp.Decomp{
		decomp.NewDecomp(decomp.Block), decomp.NewDecomp(decomp.Cyclic),
		decomp.NewDecomp(decomp.BlockCyclic(2)), decomp.NewDecomp(decomp.BlockCyclic(3)), decomp.Replicated,
	}
	arrays := []string{"a", "b", "c", "d"}
	rng := rand.New(rand.NewSource(16))
	killed := 0
	for trial := 0; trial < 3000; trial++ {
		var events []*event
		var open []*ast.Do
		for n := rng.Intn(30); n > 0; n-- {
			switch k := rng.Intn(10); {
			case k == 0 && len(open) < 3:
				l := &ast.Do{Var: "k"}
				open = append(open, l)
				events = append(events, &event{kind: evLoopBegin, loop: l})
			case k == 1 && len(open) > 0:
				events = append(events, &event{kind: evLoopEnd, loop: open[len(open)-1]})
				open = open[:len(open)-1]
			case k < 6:
				events = append(events, &event{kind: evUse, array: arrays[rng.Intn(4)], decomp: decomps[rng.Intn(5)]})
			default:
				events = append(events, &event{
					kind: evRemap, array: arrays[rng.Intn(3)], decomp: decomps[rng.Intn(5)],
					cond: rng.Intn(6) == 0, dead: rng.Intn(8) == 0,
				})
			}
		}
		for len(open) > 0 {
			events = append(events, &event{kind: evLoopEnd, loop: open[len(open)-1]})
			open = open[:len(open)-1]
		}
		entry := map[string]decomp.Decomp{}
		for _, a := range arrays[:rng.Intn(5)] {
			entry[a] = decomps[rng.Intn(5)]
		}
		want := make([]*event, len(events))
		for i, e := range events {
			cp := *e
			want[i] = &cp
		}
		oldCoalesce(want, entry)
		coalesce(events, entry, nil)
		for i, e := range events {
			if e.dead != want[i].dead || e.why != want[i].why {
				t.Fatalf("trial %d event %d (%s→%s): dead=%v why=%q, map form dead=%v why=%q",
					trial, i, e.array, e.decomp.Key(), e.dead, e.why, want[i].dead, want[i].why)
			}
			if e.why == WhyCoalesced {
				killed++
			}
		}
	}
	if killed < 500 {
		t.Errorf("only %d remaps coalesced over all trials", killed)
	}
}
