package machine

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// ringBcast runs one ring broadcast from root on P processors and
// returns the machine and the most processors parked at once, counted
// as each node program starts: every processor parks, if at all, before
// the root runs.
func ringBcast(t *testing.T, P, root int) (*Machine, int) {
	t.Helper()
	m := New(DefaultConfig(P))
	e := m.eng.(*desEngine)
	most := 0
	for pid := 0; pid < P; pid++ {
		m.Go(pid, func(p *Proc) {
			n := 0
			for _, parked := range e.parked {
				if parked {
					n++
				}
			}
			most = max(most, n)
			var data []float64
			if p.ID() == root {
				data = []float64{1, 2, 3}
			}
			if got := p.Broadcast(root, Group{N: P, Ring: true}, data); len(got) != 3 {
				t.Errorf("p%d received %v", p.ID(), got)
			}
		})
	}
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	return m, most
}

// TestCoroutinesFollowParkedProcessors: the engine makes a coroutine
// only for a processor that parks while no other is free. A ring
// broadcast from processor 0 parks nobody (each processor finds its
// message sent when it starts), so all 1 024 processors run on one
// coroutine; from root r the r processors before it park at once, and
// the run makes r + 1.
func TestCoroutinesFollowParkedProcessors(t *testing.T) {
	for _, tc := range []struct{ P, root int }{{1024, 0}, {64, 1}, {64, 17}, {64, 63}, {5, 2}} {
		m, most := ringBcast(t, tc.P, tc.root)
		made := m.eng.(*desEngine).made
		if most != tc.root || made != tc.root+1 {
			t.Errorf("P=%d root=%d: %d coroutines with %d parked at once, want %d with %d", tc.P, tc.root, made, most, tc.root+1, tc.root)
		}
		if made > most+1 {
			t.Errorf("P=%d root=%d: %d coroutines, more than %d parked at once + 1", tc.P, tc.root, made, most)
		}
	}
}

// TestNoCoroutineOutlivesWait: however a run ends — normally, in a
// deadlock report, on a node program's panic, on Abort or on a context
// cancelled from outside — Wait returns with no goroutine of the run
// left, though processors parked, idled and started on reused
// coroutines along the way.
func TestNoCoroutineOutlivesWait(t *testing.T) {
	const P = 16
	cause := errors.New("stop")
	for _, tc := range []struct {
		name string
		node func(m *Machine, p *Proc) // every processor's program
		ext  func(m *Machine) func()   // started beside the run; returns its join
	}{
		{"normal end", func(m *Machine, p *Proc) {
			var data []float64
			if p.ID() == P/2 {
				data = []float64{1}
			}
			p.Broadcast(P/2, Group{N: P, Ring: true}, data)
		}, nil},
		{"deadlock", func(m *Machine, p *Proc) {
			if p.ID() < P/2 {
				p.Recv((p.ID() + 1) % (P / 2))
			}
		}, nil},
		{"panic", func(m *Machine, p *Proc) {
			switch {
			case p.ID() == P/2:
				panic("node program bug")
			case p.ID() < P/2:
				p.Recv(P / 2)
			}
		}, nil},
		{"abort", func(m *Machine, p *Proc) {
			switch {
			case p.ID() == P/2:
				m.Abort(p.ID(), cause)
			case p.ID() < P/2:
				p.Recv(P / 2)
			}
		}, nil},
		{"context cancel", func(m *Machine, p *Proc) {
			if p.ID() == P-1 {
				for {
					p.Compute(1)
				}
			}
			p.Recv(P - 1)
		}, func(m *Machine) func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
			done := make(chan struct{})
			go func() {
				defer close(done)
				<-ctx.Done()
				m.Abort(-1, ctx.Err())
			}()
			return func() { cancel(); <-done }
		}},
	} {
		base := runtime.NumGoroutine()
		m := New(DefaultConfig(P))
		join := func() {}
		if tc.ext != nil {
			join = tc.ext(m)
		}
		for pid := 0; pid < P; pid++ {
			m.Go(pid, func(p *Proc) { tc.node(m, p) })
		}
		err := m.Wait()
		join()
		if (err == nil) != (tc.name == "normal end") {
			t.Errorf("%s: Wait() = %v", tc.name, err)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("%s: %d goroutines after Wait, %d before the run", tc.name, n, base)
		}
	}
}
