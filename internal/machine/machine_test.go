package machine

import (
	"math"
	"testing"
	"testing/quick"

	"fortd/internal/trace"
	"fortd/internal/trace/analyze"
)

func TestSendRecvClocks(t *testing.T) {
	m := New(Config{P: 2, Latency: 10, PerWord: 1, FlopCost: 1})
	m.Go(0, func(p *Proc) {
		p.Compute(5) // clock 5
		p.Send(1, []float64{1, 2, 3})
	})
	var got []float64
	m.Go(1, func(p *Proc) {
		got = p.Recv(0)
	})
	m.Wait()
	s := m.Stats()
	if len(got) != 3 || got[0] != 1 {
		t.Fatalf("data = %v", got)
	}
	// sender: 5 + 10 (startup) = 15; receiver: 15 + 10 + 3*1 = 28
	if s.PerProc[0].Clock != 15 {
		t.Errorf("sender clock = %v", s.PerProc[0].Clock)
	}
	if s.PerProc[1].Clock != 28 {
		t.Errorf("receiver clock = %v", s.PerProc[1].Clock)
	}
	if s.Messages != 1 || s.Words != 3 {
		t.Errorf("stats = %+v", s)
	}
}

func TestReceiverNotRewound(t *testing.T) {
	m := New(Config{P: 2, Latency: 1, PerWord: 0, FlopCost: 1})
	m.Go(0, func(p *Proc) {
		p.Send(1, []float64{1})
	})
	m.Go(1, func(p *Proc) {
		p.Compute(1000) // receiver is already far ahead
		p.Recv(0)
	})
	m.Wait()
	s := m.Stats()
	if s.PerProc[1].Clock != 1000 {
		t.Errorf("receiver clock = %v, want 1000 (no rewind)", s.PerProc[1].Clock)
	}
}

func TestSelfSendIsFree(t *testing.T) {
	m := New(DefaultConfig(2))
	m.Go(0, func(p *Proc) {
		p.Send(0, []float64{1, 2})
	})
	m.Go(1, func(p *Proc) {})
	m.Wait()
	if s := m.Stats(); s.Messages != 0 || s.Words != 0 {
		t.Errorf("self-send counted: %+v", s)
	}
}

func TestBroadcast(t *testing.T) {
	const P = 4
	m := New(Config{P: P, Latency: 10, PerWord: 1, FlopCost: 1})
	results := make([][]float64, P)
	for p := 0; p < P; p++ {
		p := p
		m.Go(p, func(pr *Proc) {
			var data []float64
			if p == 2 {
				data = []float64{9, 8}
			}
			results[p] = pr.Broadcast(2, All, data)
		})
	}
	m.Wait()
	for p := 0; p < P; p++ {
		if len(results[p]) != 2 || results[p][0] != 9 {
			t.Errorf("proc %d got %v", p, results[p])
		}
	}
	if s := m.Stats(); s.Messages != P-1 {
		t.Errorf("broadcast messages = %d", s.Messages)
	}
}

func TestManyMessagesNoDeadlock(t *testing.T) {
	m := New(DefaultConfig(2))
	const N = 5000
	m.Go(0, func(p *Proc) {
		for i := 0; i < N; i++ {
			p.Send(1, []float64{float64(i)})
		}
	})
	m.Go(1, func(p *Proc) {
		for i := 0; i < N; i++ {
			d := p.Recv(0)
			if d[0] != float64(i) {
				t.Errorf("message %d out of order: %v", i, d)
				return
			}
		}
	})
	m.Wait()
	if s := m.Stats(); s.Messages != N {
		t.Errorf("messages = %d", s.Messages)
	}
}

// Property: time is monotone in message count for a fixed pattern, and
// total time >= per-message lower bound.
func TestLatencyDominatesSmallMessages(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%50) + 1
		m := New(Config{P: 2, Latency: 100, PerWord: 1, FlopCost: 1})
		m.Go(0, func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Send(1, []float64{0})
			}
		})
		m.Go(1, func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Recv(0)
			}
		})
		m.Wait()
		s := m.Stats()
		return s.Time >= float64(n)*100
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestVectorizationWins demonstrates the machine model's core shape:
// one 100-word message is far cheaper than 100 one-word messages.
func TestVectorizationWins(t *testing.T) {
	run := func(messages, wordsEach int) float64 {
		m := New(DefaultConfig(2))
		m.Go(0, func(p *Proc) {
			data := make([]float64, wordsEach)
			for i := 0; i < messages; i++ {
				p.Send(1, data)
			}
		})
		m.Go(1, func(p *Proc) {
			for i := 0; i < messages; i++ {
				p.Recv(0)
			}
		})
		m.Wait()
		return m.Stats().Time
	}
	vectorized := run(1, 100)
	elementwise := run(100, 1)
	if elementwise < 10*vectorized {
		t.Errorf("element-wise %.1f vs vectorized %.1f: expected >10x gap", elementwise, vectorized)
	}
}

func TestCountRemap(t *testing.T) {
	m := New(Config{P: 4, Latency: 10, PerWord: 1, FlopCost: 1})
	for p := 0; p < 4; p++ {
		m.Go(p, func(pr *Proc) {
			pr.CountRemap(25, 3)
		})
	}
	m.Wait()
	s := m.Stats()
	// a collective remap counts once even though all 4 processors
	// participate
	if s.Remaps != 1 {
		t.Errorf("remaps = %d, want 1", s.Remaps)
	}
	if s.Words != 100 {
		t.Errorf("words = %d", s.Words)
	}
}

// TestPairAccounting: the traced run's traffic matrix charges a send to
// (src, dst) and a remap to the sender's diagonal, its rows reconcile
// with each processor's totals, and every non-remap message sent is
// received (conservation).
func TestPairAccounting(t *testing.T) {
	m := New(Config{P: 3, Latency: 10, PerWord: 1, FlopCost: 1})
	tr := trace.New()
	m.SetTracer(tr)
	m.Go(0, func(p *Proc) {
		p.Send(1, []float64{1, 2})
		p.Send(2, []float64{3})
		p.CountRemap(40, 2)
	})
	m.Go(1, func(p *Proc) {
		p.Recv(0)
		p.Send(2, []float64{4, 5, 6})
		p.CountRemap(40, 2)
	})
	m.Go(2, func(p *Proc) {
		p.Recv(0)
		p.Recv(1)
		p.CountRemap(40, 2)
	})
	m.Wait()
	s := m.Stats()
	mx := analyze.Analyze(tr.Events()).Matrix
	cell := func(src, dst int, msgs, words int64, what string) {
		if mx.Msgs[src][dst] != msgs || mx.Words[src][dst] != words {
			t.Errorf("%s: Matrix[%d][%d] = %d msgs / %d words, want %d / %d",
				what, src, dst, mx.Msgs[src][dst], mx.Words[src][dst], msgs, words)
		}
	}
	cell(0, 1, 1, 2, "send")
	cell(1, 2, 1, 3, "send")
	for p := 0; p < 3; p++ {
		cell(p, p, 2, 40, "remap not on diagonal")
	}
	checkMatrixRows(t, mx, s)
	// conservation: every non-remap send was consumed by a Recv
	var sent, remap int64
	for _, ps := range s.PerProc {
		sent += ps.Sent
		remap += ps.RemapMsgs
	}
	if sent-remap != s.Received {
		t.Errorf("sent-remap = %d, received = %d", sent-remap, s.Received)
	}
	if s.Received != 3 {
		t.Errorf("Received = %d, want 3", s.Received)
	}
}

// checkMatrixRows requires each row of a traced run's traffic matrix to
// re-add to that processor's Sent and Words.
func checkMatrixRows(t *testing.T, mx *analyze.Matrix, s Stats) {
	t.Helper()
	if mx.P != len(s.PerProc) {
		t.Fatalf("matrix is %d×%d, machine has %d processors", mx.P, mx.P, len(s.PerProc))
	}
	for src, ps := range s.PerProc {
		var msgs, words int64
		for dst := range mx.Msgs[src] {
			msgs += mx.Msgs[src][dst]
			words += mx.Words[src][dst]
		}
		if msgs != ps.Sent || words != ps.Words {
			t.Errorf("p%d traffic row (msgs=%d words=%d) != proc totals (%d, %d)",
				src, msgs, words, ps.Sent, ps.Words)
		}
	}
}

// TestBroadcastTreeAllRoots: the binomial-tree broadcast delivers from
// any root at any machine size.
func TestBroadcastTreeAllRoots(t *testing.T) {
	for _, P := range []int{1, 2, 3, 5, 8, 13} {
		for root := 0; root < P; root++ {
			m := New(Config{P: P, Latency: 5, PerWord: 1, FlopCost: 1})
			got := make([][]float64, P)
			for p := 0; p < P; p++ {
				p := p
				m.Go(p, func(pr *Proc) {
					var data []float64
					if p == root {
						data = []float64{float64(root), 42}
					}
					got[p] = pr.Broadcast(root, All, data)
				})
			}
			m.Wait()
			for p := 0; p < P; p++ {
				if len(got[p]) != 2 || got[p][0] != float64(root) {
					t.Fatalf("P=%d root=%d proc=%d got %v", P, root, p, got[p])
				}
			}
			if s := m.Stats(); s.Messages != int64(P-1) {
				t.Errorf("P=%d root=%d messages = %d, want %d", P, root, s.Messages, P-1)
			}
		}
	}
}

// TestBroadcastLogDepth: the critical path grows logarithmically, not
// linearly, with P.
func TestBroadcastLogDepth(t *testing.T) {
	timeFor := func(P int) float64 {
		m := New(Config{P: P, Latency: 100, PerWord: 0, FlopCost: 1})
		for p := 0; p < P; p++ {
			p := p
			m.Go(p, func(pr *Proc) {
				var data []float64
				if p == 0 {
					data = []float64{1}
				}
				pr.Broadcast(0, All, data)
			})
		}
		m.Wait()
		return m.Stats().Time
	}
	t16 := timeFor(16)
	// binomial tree: 4 rounds of (send+deliver) ≈ 8 latencies; a linear
	// fan-out would need 15 sender latencies before the last delivery
	if t16 > 100*10 {
		t.Errorf("broadcast over 16 procs took %.0f, not logarithmic", t16)
	}
}

// TestComputeStripMatchesCompute: a strip's charge is the per-call
// charges of its iterations, statement by statement, to the last bit of
// the clock, on a straggler and off it, for flop counts whose products
// with a non-integral flop cost round differently as the clock grows.
func TestComputeStripMatchesCompute(t *testing.T) {
	flops := []int{9, 1, 4, 27}
	run := func(strip bool) Stats {
		m := New(Config{P: 2, Latency: 1, FlopCost: 0.1})
		m.SetFaultPlan(&FaultPlan{Seed: 3, Stragglers: map[int]float64{1: 1.37}})
		for pid := 0; pid < 2; pid++ {
			m.Go(pid, func(p *Proc) {
				for _, n := range []int{1, 255, 256, 3, 1000} {
					if strip {
						p.ComputeStrip(n, flops)
						continue
					}
					for i := 0; i < n; i++ {
						for _, f := range flops {
							p.Compute(f)
						}
					}
				}
			})
		}
		if err := m.Wait(); err != nil {
			t.Fatal(err)
		}
		return m.Stats()
	}
	calls, strips := run(false), run(true)
	for pid := range calls.PerProc {
		c, s := calls.PerProc[pid], strips.PerProc[pid]
		if math.Float64bits(c.Clock) != math.Float64bits(s.Clock) || c.Flops != s.Flops {
			t.Errorf("p%d: strips charge clock %v (%x) and %d flops, calls %v (%x) and %d",
				pid, s.Clock, math.Float64bits(s.Clock), s.Flops, c.Clock, math.Float64bits(c.Clock), c.Flops)
		}
	}
	if calls.PerProc[0].Clock == calls.PerProc[1].Clock {
		t.Error("the straggler's clock equals the other's: the skew is not applied")
	}
}
