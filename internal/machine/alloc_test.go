package machine

import (
	"runtime"
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
// with pooled payloads, reused slots, and steady-state heaps it must
// report 0 — the setup allocations (goroutines, first link and slots,
// pool high-water) amortize away over b.N messages.
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

// BenchmarkMachineAllToAll is dyndist_p256's run with the arithmetic
// left out, the machine's share of it: on P=256 every processor sends
// one word to each of the 16 processors its BLOCK share of 4 096
// elements reaches under CYCLIC, receives one from each of the 16 whose
// shares hold its elements, then joins six AllReduces. One op is one run
// on a new machine.
func BenchmarkMachineAllToAll(b *testing.B) {
	const np, per = 256, 16
	b.ReportAllocs()
	for range b.N {
		m := New(DefaultConfig(np))
		for pid := range np {
			m.Go(pid, func(p *Proc) {
				for j := range per {
					p.Scratch(1)[0] = float64(pid)
					p.Send((per*pid+j)%np, p.Scratch(1))
				}
				for k := range per {
					p.Recv(pid/per + per*k)
				}
				for range 6 {
					p.AllReduce(1, add)
				}
			})
		}
		if err := m.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}

func add(a, b float64) float64 { return a + b }

// TestDESMessageAllocationFree pins the tentpole's allocation contract
// as a test (the benchmark only reports): a whole 2000-round-trip run
// — 4000 messages — must cost no more than a fixed setup budget of
// allocations, i.e. amortized zero per message.
func TestDESMessageAllocationFree(t *testing.T) {
	const rounds = 2000
	avg := testing.AllocsPerRun(3, func() {
		pingPong(t, Config{P: 2, Latency: 70, PerWord: 0.4, FlopCost: 0.1}, rounds, 64)
	})
	// machine construction + two goroutines + first-touch links, pool
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

// TestDESLinkStateFollowsMessages: link state costs what the messages in
// flight need, not one object per link. A P=64 all-to-all of one-word
// messages, every message delivered before any is taken, touches 4 032
// links and keeps 4 032 slots and payloads busy, yet allocates a few
// dozen objects: the link table, the slot slab and the short-payload
// slab grow by doubling. A second wave on the same machine, over links
// that exist and slots and buffers that have come back, allocates
// nothing.
func TestDESLinkStateFollowsMessages(t *testing.T) {
	const np, links = 64, 64 * 63
	e := New(Config{P: np, Latency: 70, PerWord: 0.4, FlopCost: 0.1}).eng.(*desEngine)
	wave := func() {
		for src := range np {
			for dst := range np {
				if src != dst && !e.deliver(src, dst, message{data: []float64{float64(src)}}) {
					t.Fatalf("p%d->p%d congested", src, dst)
				}
			}
		}
		for dst := range np {
			for src := range np {
				if src == dst {
					continue
				}
				if msg := e.take(dst, e.link(src, dst)); len(msg.data) != 1 || msg.data[0] != float64(src) {
					t.Fatalf("p%d took %v from p%d", dst, msg.data, src)
				}
			}
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	wave()
	runtime.ReadMemStats(&after)
	first := after.Mallocs - before.Mallocs
	again := testing.AllocsPerRun(3, wave)
	t.Logf("first wave over %d links: %d allocs, %d links, %d slots; each later wave %.0f", links, first, len(e.links), len(e.slots), again)
	if len(e.links) != links || len(e.slots) != links {
		t.Errorf("%d links and %d slots, want %d of each", len(e.links), len(e.slots), links)
	}
	if first > 100 {
		t.Errorf("the first wave over %d links costs %d allocs, want a few dozen (<= 100), not one per link", links, first)
	}
	if again != 0 {
		t.Errorf("a wave over links that exist costs %.0f allocs, want 0", again)
	}
}
