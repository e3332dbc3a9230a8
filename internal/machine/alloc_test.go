package machine

import (
	"testing"
)

// pingPong runs n round trips of a w-word payload between two
// processors on a fresh machine and returns the machine for
// inspection. Payloads are staged through Scratch, the way the SPMD
// interpreter stages generated sends.
func pingPong(tb testing.TB, cfg Config, n, w int) *Machine {
	m := New(cfg)
	m.Go(0, func(p *Proc) {
		for i := 0; i < n; i++ {
			buf := p.Scratch(w)
			for j := range buf {
				buf[j] = float64(i + j)
			}
			p.Send(1, buf)
			p.Recv(1)
		}
	})
	m.Go(1, func(p *Proc) {
		for i := 0; i < n; i++ {
			data := p.Recv(0)
			buf := p.Scratch(w)
			copy(buf, data)
			p.Send(0, buf)
		}
	})
	if err := m.Wait(); err != nil {
		tb.Fatal(err)
	}
	return m
}

// BenchmarkMachineMessage measures the engine's per-message cost
// over a two-processor ping-pong. The headline number is allocs/op:
// with pooled payloads, reused rings, and steady-state heaps it must
// report 0 — the setup allocations (goroutines, first ring, pool
// high-water) amortize away over b.N messages.
func BenchmarkMachineMessage(b *testing.B) {
	b.ReportAllocs()
	m := New(Config{P: 2, Latency: 70, PerWord: 0.4, FlopCost: 0.1})
	n := b.N/2 + 1 // two messages per round trip
	m.Go(0, func(p *Proc) {
		for i := 0; i < n; i++ {
			buf := p.Scratch(64)
			buf[0] = float64(i)
			p.Send(1, buf)
			p.Recv(1)
		}
	})
	m.Go(1, func(p *Proc) {
		for i := 0; i < n; i++ {
			data := p.Recv(0)
			p.Send(0, data[:64])
		}
	})
	b.ResetTimer()
	if err := m.Wait(); err != nil {
		b.Fatal(err)
	}
}

// TestDESMessageAllocationFree pins the tentpole's allocation contract
// as a test (the benchmark only reports): a whole 2000-round-trip run
// — 4000 messages — must cost no more than a fixed setup budget of
// allocations, i.e. amortized zero per message.
func TestDESMessageAllocationFree(t *testing.T) {
	const rounds = 2000
	avg := testing.AllocsPerRun(3, func() {
		pingPong(t, Config{P: 2, Latency: 70, PerWord: 0.4, FlopCost: 0.1}, rounds, 64)
	})
	// machine construction + two goroutines + first-touch rings, pool
	// and heap growth stay under ~100 allocations; 4000 messages that
	// each allocated anything would blow far past the bound
	if avg > 150 {
		t.Errorf("run of %d round trips cost %.0f allocs, want amortized-zero per message (<=150 total)", rounds, avg)
	}
}

// TestDESPayloadIsolation guards the pooling contract that makes the
// zero-alloc path safe: a received payload stays intact until the
// receiver's next Recv, even while the sender immediately rebuilds its
// scratch buffer and more traffic flows through the pool.
func TestDESPayloadIsolation(t *testing.T) {
	m := New(Config{P: 3, Latency: 1, PerWord: 0, FlopCost: 1})
	var got [2][]float64
	m.Go(0, func(p *Proc) {
		for i := 0; i < 2; i++ {
			buf := p.Scratch(4)
			for j := range buf {
				buf[j] = float64(10*i + j)
			}
			p.Send(1, buf)
			// immediately clobber the scratch buffer: the machine must
			// have copied the payload on delivery
			junk := p.Scratch(4)
			for j := range junk {
				junk[j] = -1
			}
			p.Send(2, junk)
		}
	})
	m.Go(1, func(p *Proc) {
		first := p.Recv(0)
		snapshot := append([]float64(nil), first...)
		second := p.Recv(0) // recycles first's buffer
		got[0] = snapshot
		got[1] = append([]float64(nil), second...)
	})
	m.Go(2, func(p *Proc) {
		p.Recv(0)
		p.Recv(0)
	})
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	want := [2][]float64{{0, 1, 2, 3}, {10, 11, 12, 13}}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("message %d = %v, want %v (payload corrupted by pooling)", i, got[i], want[i])
			}
		}
	}
}

// TestCallerOwnedHandlesAllocationFree: split-phase operations posted
// into handles the caller keeps (IRecvInto, PostBcastInto) cost no
// allocation per operation either, and a reused handle completes each
// round with that round's payload.
func TestCallerOwnedHandlesAllocationFree(t *testing.T) {
	const rounds = 2000
	run := func() {
		m := New(Config{P: 4, Latency: 70, PerWord: 0.4, FlopCost: 0.1})
		for pid := 0; pid < 4; pid++ {
			m.Go(pid, func(p *Proc) {
				var recv, bcast Handle
				for i := 0; i < rounds; i++ {
					root := i % 4
					var data []float64
					if p.ID() == root {
						data = p.Scratch(8)
						data[0] = float64(i)
					}
					p.PostBcastInto(&bcast, root, All, data)
					p.IRecvInto(&recv, (p.ID()+1)%4)
					if got := p.WaitHandle(&bcast); got[0] != float64(i) {
						t.Errorf("p%d round %d: broadcast delivered %v", p.ID(), i, got[0])
						return
					}
					buf := p.Scratch(2)
					buf[0] = float64(-i)
					p.Send((p.ID()+3)%4, buf)
					if got := p.WaitHandle(&recv); got[0] != float64(-i) {
						t.Errorf("p%d round %d: received %v", p.ID(), i, got[0])
						return
					}
				}
			})
		}
		if err := m.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(3, run); avg > 250 {
		t.Errorf("%d split-phase rounds on 4 processors cost %.0f allocs, want amortized zero (<=250 total)", rounds, avg)
	}
}
