package machine

import (
	"testing"
)

// The engine's payload ownership rule (des.go): one copy at the
// originating send, references from there on, the last release returns
// the buffer to the pool.

// auditPayloads recounts every reference the engine can still reach —
// one per slot on a link, one per processor's held payload — and requires
// each buffer's count to equal it, every other buffer ever made to sit
// in the pool exactly once with no references, and returns how many
// buffers are still referenced. A forward that forgot its reference
// shows as a pooled-while-referenced buffer or a low count, a release
// that never came as a high count or a buffer in neither place.
func auditPayloads(t *testing.T, m *Machine) (live int) {
	t.Helper()
	e := m.eng.(*desEngine)
	want := map[*payload]int32{}
	for _, b := range e.held {
		if b != nil {
			want[b]++
		}
	}
	// every slot is on one link's chain or on the free list, and only a
	// chained slot holds a payload
	chained := 0
	for _, l := range e.links {
		for s, i := l.head, int32(0); i < l.n; s, i = e.slots[s].next, i+1 {
			if b := e.slots[s].buf; b != nil {
				want[b]++
			}
			chained++
		}
	}
	free := 0
	for s := e.free; s >= 0; s = e.slots[s].next {
		if e.slots[s].buf != nil {
			t.Errorf("free slot %d still holds a %d-word payload", s, len(e.slots[s].buf.data))
		}
		free++
	}
	if chained+free != len(e.slots) {
		t.Errorf("%d slots: %d on links + %d free", len(e.slots), chained, free)
	}
	pooled := map[*payload]bool{}
	for c, class := range e.pool.classes {
		for _, b := range class {
			if pooled[b] {
				t.Errorf("a class-%d buffer is in the pool twice (double release)", c)
			}
			pooled[b] = true
			if b.refs != 0 {
				t.Errorf("a pooled class-%d buffer has %d references", c, b.refs)
			}
			if want[b] != 0 {
				t.Errorf("a class-%d buffer is in the pool while %d references are out (early recycle)", c, want[b])
			}
		}
	}
	for b, n := range want {
		if b.refs != n {
			t.Errorf("a %d-word buffer counts %d references, %d are reachable", len(b.data), b.refs, n)
		}
	}
	if len(pooled)+len(want) != e.pool.made {
		t.Errorf("%d buffers made, %d pooled + %d referenced: the rest leaked", e.pool.made, len(pooled), len(want))
	}
	return len(want)
}

func pattern(round, j int) float64 { return float64(1000*round + j) }

func checkPattern(t testing.TB, pid, round int, got []float64, words int) {
	t.Helper()
	if len(got) != words {
		t.Errorf("p%d round %d: %d words, want %d", pid, round, len(got), words)
		return
	}
	for j, v := range got {
		if v != pattern(round, j) {
			t.Errorf("p%d round %d: word %d = %v, want %v (payload recycled under a reader)", pid, round, j, v, pattern(round, j))
			return
		}
	}
}

// TestForwardedPayloadOutlivesItsForwarder: a payload forwarded down a
// P=16 tree is one buffer. Every interior processor forwards it, then
// receives twice more (giving up its own reference) and sends messages
// of the same size class, which would land in that very buffer had the
// forward not taken a reference. Node programs start in Go-call order
// and nothing here blocks a non-root, so every child reads its payload
// after its parent has done all of that.
func TestForwardedPayloadOutlivesItsForwarder(t *testing.T) {
	const np, words = 16, 32
	m := New(Config{P: np, Latency: 70, PerWord: 0.4, FlopCost: 0.1})
	var moved [np]bool // the processor has received twice since it forwarded
	for pid := 0; pid < np; pid++ {
		m.Go(pid, func(p *Proc) {
			var h Handle
			if pid == 0 {
				data := p.Scratch(words)
				for j := range data {
					data[j] = pattern(1, j)
				}
				p.PostBcastInto(&h, 0, All, data)
				for q := 1; q < np; q++ {
					for i := 0; i < 2; i++ {
						junk := p.Scratch(words)
						for j := range junk {
							junk[j] = -1
						}
						p.Send(q, junk)
					}
				}
				for q := 1; q < np; q++ {
					p.Recv(q)
					p.Recv(q)
				}
				return
			}
			p.PostBcastInto(&h, 0, All, nil)
			if parent, _ := bcastTree(pid, np, nil); parent != 0 && !moved[parent] {
				t.Errorf("p%d runs before its parent p%d has moved on: the test no longer tests anything", pid, parent)
			}
			checkPattern(t, pid, 1, p.WaitHandle(&h), words)
			p.Recv(0)
			p.Recv(0)
			moved[pid] = true
			// two draws from the pool: its free list is a stack, and the
			// second buffer released above is on top of the first
			for i := 0; i < 2; i++ {
				junk := p.Scratch(words)
				for j := range junk {
					junk[j] = -2
				}
				p.Send(0, junk)
			}
		})
	}
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	auditPayloads(t, m)
}

// bcastRounds runs rounds split-phase broadcasts of a words-word payload
// with the root rotating over the first roots processors (at least two:
// a root never waits, so a single one would run every round before
// anyone else starts), every processor checking what it receives, and two
// closing zero-word broadcasts, from processors 0 and 1, whose messages
// make every processor give up the last payload it holds.
func bcastRounds(t testing.TB, m *Machine, rounds, words, roots int) {
	np := m.P()
	for pid := 0; pid < np; pid++ {
		m.Go(pid, func(p *Proc) {
			var h Handle
			for r := 0; r < rounds; r++ {
				root := r % roots
				var data []float64
				if pid == root {
					data = p.Scratch(words)
					for j := range data {
						data[j] = pattern(r, j)
					}
				}
				p.PostBcastInto(&h, root, All, data)
				checkPattern(t, pid, r, p.WaitHandle(&h), words)
			}
			p.Broadcast(0, All, nil)
			p.Broadcast(1, All, nil)
		})
	}
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestPayloadsAllReturnToThePool: after a run in which every message was
// received and every processor's last receive carried no payload, no
// reference is left anywhere and the pool holds every buffer it made.
func TestPayloadsAllReturnToThePool(t *testing.T) {
	m := New(DefaultConfig(16))
	bcastRounds(t, m, 40, 24, 16)
	if live := auditPayloads(t, m); live != 0 {
		t.Errorf("%d buffers still referenced after the run", live)
	}
}

// TestDuplicateOfForwardedPayload: with every message duplicated, each
// forward puts two references to the received buffer on the link; the
// duplicate's is dropped when the receiver discards it, or is still in
// the ring when the run ends. Neither leaks nor frees twice, and the
// payloads arrive intact.
func TestDuplicateOfForwardedPayload(t *testing.T) {
	m := New(DefaultConfig(16))
	m.SetFaultPlan(&FaultPlan{Seed: 3, DupProb: 1, MaxDups: 1 << 20})
	bcastRounds(t, m, 40, 24, 16)
	auditPayloads(t, m)
	dups := 0
	for _, p := range m.procs {
		dups += p.fdups
	}
	if dups < 40*15 {
		t.Errorf("%d duplicates injected, want every one of the %d broadcast messages doubled", dups, 40*15)
	}
}

// TestBcastRoundDrawsOneBuffer: in steady state a split-phase broadcast
// at P=64 allocates nothing, and the 63 messages of a round share the
// one buffer the root's first send drew — so however many rounds run,
// the pool never has to make more than the few buffers that the two or
// three rounds in flight keep alive (a copy per message would need
// dozens).
func TestBcastRoundDrawsOneBuffer(t *testing.T) {
	const np, words = 64, 128
	made := 0
	run := func(rounds int) func() {
		return func() {
			m := New(DefaultConfig(np))
			bcastRounds(t, m, rounds, words, 2)
			made = m.eng.(*desEngine).pool.made
		}
	}
	short := testing.AllocsPerRun(3, run(8))
	long := testing.AllocsPerRun(3, run(264))
	if long-short > 40 {
		t.Errorf("264 rounds cost %.0f allocs, 8 rounds %.0f: a broadcast round allocates", long, short)
	}
	if made > 4 {
		t.Errorf("the pool made %d buffers for 264 rounds of one %d-word payload each, want at most 4", made, words)
	}
}

// BenchmarkMachineBcastForward measures one split-phase broadcast of a
// 128-word payload down the P=64 tree: 63 messages, 57 of them
// forwards, one copy.
func BenchmarkMachineBcastForward(b *testing.B) {
	b.ReportAllocs()
	m := New(DefaultConfig(64))
	b.ResetTimer()
	bcastRounds(b, m, b.N, 128, 2)
}
