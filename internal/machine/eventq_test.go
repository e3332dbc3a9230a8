package machine

import (
	"math/rand"
	"sort"
	"testing"
)

// refLess is the specification order, written independently of
// event.less: (time, seq, pid) lexicographic.
func refLess(a, b event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.pid < b.pid
}

// randomEvents builds an event set dense in ties: times are drawn from
// a tiny palette (so equal virtual times are common), seq from a small
// range (so the pid tie-break is exercised too), and exact duplicates
// are allowed.
func randomEvents(rng *rand.Rand, n int) []event {
	times := []float64{0, 0, 1, 2, 2, 2.5, 3, 70.4}
	evs := make([]event, n)
	for i := range evs {
		evs[i] = event{
			time: times[rng.Intn(len(times))],
			seq:  uint64(rng.Intn(20)),
			pid:  rng.Intn(48),
		}
	}
	return evs
}

// TestEventQueueDrainsInOrder: a random event set pushed in arbitrary
// order drains in total (time, seq, pid) order.
func TestEventQueueDrainsInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 150; trial++ {
		evs := randomEvents(rng, rng.Intn(300))
		want := append([]event(nil), evs...)
		sort.SliceStable(want, func(i, j int) bool { return refLess(want[i], want[j]) })

		var q eventHeap
		for _, e := range evs {
			q.push(e)
		}
		if len(q.ev) != len(evs) {
			t.Fatalf("len=%d, want %d", len(q.ev), len(evs))
		}
		var got []event
		for {
			e, ok := q.pop()
			if !ok {
				break
			}
			got = append(got, e)
		}
		if len(got) != len(want) {
			t.Fatalf("trial=%d: drained %d of %d events", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial=%d: drain[%d] = %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestEventQueueInterleaved: under a random interleaving of pushes and
// pops, every pop returns the minimum of the currently queued multiset.
func TestEventQueueInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q eventHeap
	var live []event // reference multiset
	for op := 0; op < 6000; op++ {
		if len(live) == 0 || rng.Intn(3) != 0 {
			e := randomEvents(rng, 1)[0]
			q.push(e)
			live = append(live, e)
			continue
		}
		got, ok := q.pop()
		if !ok {
			t.Fatalf("op=%d: pop empty with %d live", op, len(live))
		}
		min := 0
		for i := range live {
			if refLess(live[i], live[min]) {
				min = i
			}
		}
		if got != live[min] {
			t.Fatalf("op=%d: pop = %+v, want min %+v", op, got, live[min])
		}
		live = append(live[:min], live[min+1:]...)
	}
	if len(q.ev) != len(live) {
		t.Fatalf("final len %d, want %d", len(q.ev), len(live))
	}
}
