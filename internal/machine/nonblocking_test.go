package machine

import (
	"slices"
	"testing"

	"fortd/internal/trace"
)

// TestIRecvWaitHidesFlightTime is the split-phase contract: a receive
// posted before enough independent computation costs nothing at the
// wait, while the blocking equivalent stalls for the full flight time.
func TestIRecvWaitHidesFlightTime(t *testing.T) {
	cfg := Config{P: 2, Latency: 10, PerWord: 1, FlopCost: 1}

	m := New(cfg)
	m.Go(0, func(p *Proc) { p.Send(1, []float64{7, 7, 7}) })
	var got []float64
	m.Go(1, func(p *Proc) {
		var h Handle
		p.IRecvInto(&h, 0)
		p.Compute(100) // arrival is at 10+3 = 13, long past
		got = p.WaitHandle(&h)
	})
	m.Wait()
	if len(got) != 3 || got[0] != 7 {
		t.Fatalf("data = %v", got)
	}
	s := m.Stats()
	if s.PerProc[1].Wait != 0 {
		t.Errorf("hidden wait stalled %v", s.PerProc[1].Wait)
	}
	if s.PerProc[1].Clock != 100 {
		t.Errorf("receiver clock = %v, want 100", s.PerProc[1].Clock)
	}

	// same exchange, no computation: the wait eats the full flight
	// time (send startup 10 + latency 10 + 3 words)
	m = New(cfg)
	m.Go(0, func(p *Proc) { p.Send(1, []float64{7, 7, 7}) })
	m.Go(1, func(p *Proc) {
		var h Handle
		p.IRecvInto(&h, 0)
		p.WaitHandle(&h)
	})
	m.Wait()
	if w := m.Stats().PerProc[1].Wait; w != 23 {
		t.Errorf("unhidden wait = %v, want 23", w)
	}
}

// TestWaitHandleIdempotent: waiting twice returns the same payload
// without a second receive; nil and self-receive handles are no-ops.
func TestWaitHandleIdempotent(t *testing.T) {
	m := New(DefaultConfig(2))
	m.Go(0, func(p *Proc) {
		p.Send(1, []float64{1})
		if d := p.WaitHandle(nil); d != nil {
			t.Errorf("nil wait returned %v", d)
		}
		var h Handle
		p.IRecvInto(&h, 0)
		if d := p.WaitHandle(&h); d != nil {
			t.Errorf("self-receive returned %v", d)
		}
	})
	m.Go(1, func(p *Proc) {
		var h Handle
		p.IRecvInto(&h, 0)
		a := p.WaitHandle(&h)
		b := p.WaitHandle(&h)
		if len(a) != 1 || a[0] != 1 {
			t.Errorf("first wait = %v", a)
		}
		if &a[0] != &b[0] {
			t.Error("second wait re-received")
		}
	})
	m.Wait()
	if s := m.Stats(); s.PerProc[1].Received != 1 {
		t.Errorf("received %d messages, want 1", s.PerProc[1].Received)
	}
}

// TestWaitEventKind: a stalled WaitHandle is attributed as KindWait —
// not KindRecv — carrying the stall duration the schedule failed to
// hide.
func TestWaitEventKind(t *testing.T) {
	tr := trace.New()
	m := New(Config{P: 2, Latency: 10, PerWord: 1, FlopCost: 1})
	m.SetTracer(tr)
	m.Go(0, func(p *Proc) { p.Send(1, []float64{1, 2}) })
	m.Go(1, func(p *Proc) {
		var h Handle
		p.IRecvInto(&h, 0)
		p.WaitHandle(&h)
	})
	m.Wait()
	var waits int
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case trace.KindWait:
			waits++
			if ev.Dur != 22 { // send startup 10 + latency 10 + 2 words
				t.Errorf("wait dur = %v, want 22", ev.Dur)
			}
		case trace.KindRecv:
			t.Error("split-phase receive emitted KindRecv")
		}
	}
	if waits != 1 {
		t.Errorf("wait events = %d, want 1", waits)
	}
}

// TestBcastTreeTopology pins the binomial tree: rank rel receives from
// rel-k in the round with k <= rel < 2k and forwards to rel+k in every
// later round. The tree runs over a broadcast's members, the root and
// its group, ranked by distance (pid - root) mod P from the root: the
// closed form must agree with walking the processors in that order, for
// every root and modular range (empty, wrapping, holding the root or
// not, all P and more) up to P = 9. The ring's links are checked against
// a walk from its root.
func TestBcastTreeTopology(t *testing.T) {
	cases := []struct {
		rel, np  int
		parent   int
		children []int
	}{
		{0, 8, -1, []int{1, 2, 4}},
		{1, 8, 0, []int{3, 5}},
		{2, 8, 0, []int{6}},
		{3, 8, 1, []int{7}},
		{4, 8, 0, nil},
		{7, 8, 3, nil},
		{0, 1, -1, nil},
		{2, 6, 0, nil},
		{1, 6, 0, []int{3, 5}},
	}
	for np := 1; np <= 9; np++ {
		for root := 0; root < np; root++ {
			for first := 0; first < np; first++ {
				for n := 0; n <= np+1; n++ {
					g, rank := Group{First: first, N: n}, 0
					tr := newTree(root, np, g)
					for d := 0; d < np; d++ {
						pid := (root + d) % np
						member := d == 0 || n >= np || ((pid-first)%np+np)%np < n
						if r, ok := tr.rank(pid); ok != member || ok && (r != rank || tr.pid(r) != pid) {
							t.Fatalf("P=%d root=%d %+v: proc %d ranked %d (member %v), want %d (member %v)", np, root, g, pid, r, ok, rank, member)
						}
						if member {
							rank++
						}
					}
					if tr.size != rank {
						t.Fatalf("P=%d root=%d %+v: size %d, want %d", np, root, g, tr.size, rank)
					}
				}
			}
		}
	}
	for _, c := range cases {
		parent, children := bcastTree(c.rel, c.np, nil)
		if parent != c.parent || !slices.Equal(children, c.children) {
			t.Errorf("bcastTree(%d,%d) = %d, %v, want %d, %v", c.rel, c.np, parent, children, c.parent, c.children)
		}
	}
	// The ring, walked: the root sends to ranks 1 and 2 in that order,
	// rank 1 sends nothing, and from rank 2 on every rank hands the
	// message to the next, so following the links from the root visits
	// every rank once, in rank order, each receiving from its parent.
	for np := 1; np <= 9; np++ {
		var order []int
		parentOf := map[int]int{}
		var walk func(rel int)
		walk = func(rel int) {
			order = append(order, rel)
			parent, children := ringLinks(rel, np, nil)
			if want, ok := parentOf[rel]; rel > 0 && (!ok || parent != want) {
				t.Errorf("ringLinks(%d,%d) parent = %d, sent by %d", rel, np, parent, want)
			}
			if rel == 1 && len(children) > 0 {
				t.Errorf("ringLinks(1,%d) forwards to %v", np, children)
			}
			for _, c := range children {
				parentOf[c] = rel
				walk(c)
			}
		}
		walk(0)
		for r, rel := range order {
			if rel != r || len(order) != np {
				t.Fatalf("ring walk P=%d visits %v, want 0..%d", np, order, np-1)
			}
		}
	}
}

// TestPostBcastMatchesBroadcast: the split-phase broadcast delivers
// the same payload everywhere and moves exactly the blocking
// broadcast's P-1 messages, at every P and root.
func TestPostBcastMatchesBroadcast(t *testing.T) {
	for _, np := range []int{1, 2, 3, 4, 6, 8, 16} {
		for root := 0; root < np; root += 1 + np/3 {
			m := New(DefaultConfig(np))
			results := make([][]float64, np)
			for pid := 0; pid < np; pid++ {
				pid := pid
				m.Go(pid, func(p *Proc) {
					var data []float64
					if pid == root {
						data = []float64{float64(root), 42}
					}
					var h Handle
					p.PostBcastInto(&h, root, All, data)
					results[pid] = p.WaitHandle(&h)
				})
			}
			m.Wait()
			for pid, r := range results {
				if len(r) != 2 || r[0] != float64(root) || r[1] != 42 {
					t.Errorf("np=%d root=%d proc %d got %v", np, root, pid, r)
				}
			}
			if s := m.Stats(); s.Messages != int64(np-1) {
				t.Errorf("np=%d root=%d messages = %d, want %d", np, root, s.Messages, np-1)
			}
		}
	}
}
