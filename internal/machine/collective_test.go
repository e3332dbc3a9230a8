package machine

import (
	"math"
	"math/bits"
	"slices"
	"testing"
)

// runAllReduce runs one AllReduce of value(pid) on a fresh np-processor
// machine, every processor entering at clock c, and returns what each
// processor got and the machine.
func runAllReduce(t *testing.T, np int, c float64, value func(pid int) float64, combine func(acc, v float64) float64) ([]float64, *Machine) {
	t.Helper()
	m := New(DefaultConfig(np))
	got := make([]float64, np)
	for pid := 0; pid < np; pid++ {
		m.Go(pid, func(p *Proc) {
			p.Tick(c)
			got[pid] = p.AllReduce(value(pid), combine)
		})
	}
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	return got, m
}

// TestReduceTree: recursive doubling leaves the full reduction on every
// processor at every P (odd and even), with one message per round to
// every processor whose block has a pair — a block without one sits the
// round out — and at most ceil(log2 P) receives on any processor.
func TestReduceTree(t *testing.T) {
	sum := func(a, b float64) float64 { return a + b }
	for _, np := range []int{1, 2, 3, 5, 7, 8, 16} {
		got, m := runAllReduce(t, np, 0, func(pid int) float64 { return float64(pid) }, sum)
		want := float64(np*(np-1)) / 2
		var msgs int64
		for k := 1; k < np; k <<= 1 {
			msgs += int64(np)
			if r := np % (2 * k); r <= k {
				msgs -= int64(r)
			}
		}
		for pid, g := range got {
			if g != want {
				t.Errorf("np=%d proc %d sum = %v, want %v", np, pid, g, want)
			}
		}
		s := m.Stats()
		if s.Messages != msgs {
			t.Errorf("np=%d messages = %d, want %d", np, s.Messages, msgs)
		}
		for pid, ps := range s.PerProc {
			if ps.Received > int64(bits.Len(uint(np-1))) {
				t.Errorf("np=%d proc %d received %d messages, want at most ceil(log2 P)", np, pid, ps.Received)
			}
		}
	}
}

// binomial is the reduction a combining tree into processor 0 builds
// over vals[lo : lo+k] (cut at the end): the lower half's result
// combined with the upper half's.
func binomial(vals []float64, lo, k int, combine func(acc, v float64) float64) float64 {
	if k == 1 {
		return vals[lo]
	}
	acc := binomial(vals, lo, k/2, combine)
	if lo+k/2 < len(vals) {
		acc = combine(acc, binomial(vals, lo+k/2, k/2, combine))
	}
	return acc
}

// TestAllReduceMatchesTree: every processor's result equals, bit for
// bit, a plain-Go fold of the binomial expression, for every P up to 70,
// three operations, and values whose order matters: 1e16 + 1 − 1e16
// cancellations, signed zeros and NaN.
func TestAllReduceMatchesTree(t *testing.T) {
	negZero := math.Copysign(0, -1)
	ops := map[string]func(a, b float64) float64{
		"+": func(a, b float64) float64 { return a + b },
		"MAX": func(a, b float64) float64 {
			if b > a {
				return b
			}
			return a
		},
		"MIN": func(a, b float64) float64 {
			if b < a {
				return b
			}
			return a
		},
	}
	patterns := [][]float64{
		{1e16, 1, -1e16, 0.5, -3},
		{0, negZero, negZero, 0, negZero},
		{1, math.NaN(), -1, 2},
	}
	for np := 1; np <= 70; np++ {
		for name, combine := range ops {
			for _, pat := range patterns {
				vals := make([]float64, np)
				for i := range vals {
					vals[i] = pat[(i*3+np)%len(pat)]
				}
				want := binomial(vals, 0, 1<<bits.Len(uint(np-1)), combine)
				got, _ := runAllReduce(t, np, 0, func(pid int) float64 { return vals[pid] }, combine)
				for pid, g := range got {
					if math.Float64bits(g) != math.Float64bits(want) {
						t.Fatalf("P=%d %s %v: proc %d got %v, the tree %v", np, name, vals, pid, g, want)
					}
				}
			}
		}
	}
}

// TestCollectiveClosedForm holds the collectives to arithmetic on
// DefaultConfig's α (start-up) and β (per word), every processor
// entering at clock c: the clocks are computed here in the order the
// machine adds them (a send's start-up, then arrival = send + α + w·β)
// and compared to the last bit — AllReduce, and Broadcast to every
// processor and to groups: the root inside or outside the range, a
// range wrapping past P−1, and the root alone.
func TestCollectiveClosedForm(t *testing.T) {
	const c = 1000.0
	cfg := DefaultConfig(1)
	α, β := cfg.Latency, cfg.PerWord
	sum := func(a, b float64) float64 { return a + b }
	for _, np := range []int{2, 3, 8, 64, 1024} {
		_, m := runAllReduce(t, np, c, func(pid int) float64 { return 1 }, sum)
		want := make([]float64, np)
		if np&(np-1) == 0 {
			// log2 P rounds of one exchange: send, then the partner's flight
			for pid := range want {
				want[pid] = c
				for k := 1; k < np; k <<= 1 {
					want[pid] = want[pid] + α + α + β
				}
			}
		} else { // np == 3
			// round 1: p0 and p1 exchange, p2 sits out. Round 2: p2 sends
			// to its partner p0, then to p1, which has none; p0 sends to
			// p2 and is past p2's flight by then.
			t1 := c + α + α + β
			want = []float64{t1 + α, c + α + α + α + β, t1 + α + α + β}
		}
		for pid, ps := range m.Stats().PerProc {
			if ps.Clock != want[pid] {
				t.Errorf("AllReduce P=%d: proc %d clock %v, want %v", np, pid, ps.Clock, want[pid])
			}
		}

		// Broadcast of w words from root to a group: the members (the root
		// and g) ranked by distance (pid - root) mod P from the root. On the
		// tree, rank r receives from r minus its highest bit, as that
		// parent's i-th child (i counts from 1), one start-up per earlier
		// child later; it then sends to every r+2^j past its own highest
		// bit. On the ring, the root ends at c + 2α, rank 1 receives at
		// c + 2α + βw and forwards nothing, rank 2 receives at c + 3α + βw
		// and rank d >= 3 at c + 3α + βw + (d−2)(2α + βw), each forwarding
		// to d+1 but the last. Anyone else's clock stays at c; groups of at
		// most 3 members run alike on both.
		const w = 3
		for _, bc := range []struct {
			name string
			root int
			g    Group
		}{
			{"all", 0, All},
			{"root inside", np - 1, Group{First: np / 2, N: np - np/2}},
			{"root outside", 0, Group{First: 1, N: np / 2}},
			{"wrapping", 1 % np, Group{First: np - np/2, N: np/2 + 1}},
			{"root alone", np / 3, Group{}},
		} {
			var members []int // by rank
			for d := 0; d < np; d++ {
				pid := (bc.root + d) % np
				if d == 0 || bc.g.N >= np || ((pid-bc.g.First)%np+np)%np < bc.g.N {
					members = append(members, pid)
				}
			}
			n := len(members)
			var clocks [2][]float64
			for i, ring := range []bool{false, true} {
				g, name := bc.g, bc.name
				if g.Ring = ring; ring {
					name += " ring"
				}
				m = New(DefaultConfig(np))
				for pid := 0; pid < np; pid++ {
					m.Go(pid, func(p *Proc) {
						p.Tick(c)
						var data []float64
						if pid == bc.root {
							data = make([]float64, w)
						}
						p.Broadcast(bc.root, g, data)
					})
				}
				if err := m.Wait(); err != nil {
					t.Fatal(err)
				}
				want := make([]float64, np)
				for pid := range want {
					want[pid] = c
				}
				clocksOf := treeClocks
				if ring {
					clocksOf = ringClocks
				}
				end := clocksOf(n, c, α, float64(w)*β)
				for r, pid := range members {
					want[pid] = end[r]
				}
				for pid, ps := range m.Stats().PerProc {
					clocks[i] = append(clocks[i], ps.Clock)
					if ps.Clock != want[pid] {
						t.Errorf("Broadcast %s P=%d: proc %d clock %v, want %v", name, np, pid, ps.Clock, want[pid])
					}
				}
				if msgs := m.Stats().Messages; msgs != int64(n-1) {
					t.Errorf("Broadcast %s P=%d: %d messages, want %d", name, np, msgs, n-1)
				}
			}
			if n <= 3 && !slices.Equal(clocks[0], clocks[1]) {
				t.Errorf("Broadcast %s P=%d: %d members, ring clocks %v differ from the tree's %v", bc.name, np, n, clocks[1], clocks[0])
			}
		}
	}
}

// treeClocks is the binomial tree's closed form for n members entering
// at c, with one start-up α and a flight α + βw: when each rank has sent
// its last message, in the order the machine adds.
func treeClocks(n int, c, α, βw float64) []float64 {
	recv, end := make([]float64, n), make([]float64, n)
	recv[0] = c
	for r := 1; r < n; r++ {
		parent := r &^ (1 << (bits.Len(uint(r)) - 1))
		at := recv[parent]
		for i := bits.Len(uint(parent)); i < bits.Len(uint(r)); i++ {
			at += α // one start-up per child sent before r, and r's own
		}
		recv[r] = at + α + βw
	}
	for r := range end {
		end[r] = recv[r]
		for j := bits.Len(uint(r)); r+1<<j < n; j++ {
			end[r] += α
		}
	}
	return end
}

// ringClocks is the ring's: the root ends at c + 2α (sending to ranks 1
// and 2), rank 1 receives at c + 2α + βw and ends there, rank 2 receives
// at c + 3α + βw and rank d >= 3 at c + 3α + βw + (d−2)(2α + βw); every
// rank d >= 2 but the last ends one start-up after it receives.
func ringClocks(n int, c, α, βw float64) []float64 {
	end := make([]float64, n)
	end[0] = c
	for r := 1; r < n; r++ {
		from := r - 1 // the sender, whose clock ends with this send
		if r <= 2 {
			from = 0
			end[0] += α
		}
		end[r] = end[from] + α + βw // received
		if r >= 2 && r+1 < n {
			end[r] += α
		}
	}
	return end
}

// TestModMatchesTwoDivisions: Mod, and Group.Has and first$ (min +
// Mod(anchor-min, step)) through it, give what the two-division forms
// they replaced gave, on negative and positive differences, firsts and
// anchors.
func TestModMatchesTwoDivisions(t *testing.T) {
	for n := 1; n <= 17; n++ {
		for a := -3 * n; a <= 3*n; a++ {
			if got, want := Mod(a, n), (a%n+n)%n; got != want {
				t.Fatalf("Mod(%d, %d) = %d, want %d", a, n, got, want)
			}
		}
		for anchor := -2 * n; anchor <= 2*n; anchor++ {
			for lo := -2 * n; lo <= 2*n; lo++ {
				if got, want := lo+Mod(anchor-lo, n), lo+((anchor-lo)%n+n)%n; got != want {
					t.Fatalf("first$(%d, %d, %d) = %d, want %d", anchor, lo, n, got, want)
				}
			}
		}
		for first := -2 * n; first <= 2*n; first++ {
			for size := -1; size <= n+1; size++ {
				g := Group{First: first, N: size}
				for pid := range n {
					if want := size >= n || ((pid-first)%n+n)%n < size; g.Has(pid, n) != want {
						t.Fatalf("%+v.Has(%d, %d) = %v, want %v", g, pid, n, !want, want)
					}
				}
			}
		}
	}
}
