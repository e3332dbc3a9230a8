package spmd

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"fortd/internal/ast"
	"fortd/internal/decomp"
	"fortd/internal/machine"
)

// SiteBuffers reports how many site buffers the processors of a run made
// for main-program arrays (exported to the external test package only).
func SiteBuffers(r *RunResult) int { return r.siteBufs }

// shareOf builds processor p's share of an array with the given bounds
// under spec in dimension dim, each element holding its row-major
// position in the declared array, and the overlap region NaN.
func shareOf(spec ast.DistSpec, dim, np, p int, lo, hi []int, below, above int) *Array {
	specs := make([]ast.DistSpec, len(lo))
	sizes := make([]int, len(lo))
	for d := range lo {
		specs[d], sizes[d] = decomp.Collapsed, hi[d]-lo[d]+1
	}
	specs[dim] = spec
	a := &Array{Lo: lo, Hi: hi, Dist: decomp.MustDist(decomp.NewDecomp(specs...), sizes, np)}
	nd := &node{p: p, pl: &Plan{nproc: max(np, 2), main: &procPlan{Code: &Code{}}, overlap: func(_, _ string, _, block int) (int, int) { return 1 - below, block + above }}}
	a.name = "a"
	a.win = nd.window(a)
	a.Data = poisoned(nil, a.size(a.win))
	own := newWindow(a.Dist, p, lo[dim], hi[dim])
	a.each(nil, &own, func(idx [maxRank]int) {
		at, _ := a.index(idx[:len(lo)])
		a.Data[a.local(&idx)] = float64(at)
	})
	return a
}

// ownerOf is the test's own statement of who owns subscript i of lo..hi:
// BLOCK in runs of ceil(n/P) counted from subscript 1, the ends clamped;
// CYCLIC(k) in blocks of k dealt round-robin, floored below 1.
func ownerOf(spec ast.DistSpec, np, n, i int) int {
	floorDiv := func(a, b int) int { return int(math.Floor(float64(a) / float64(b))) }
	switch spec.Kind {
	case ast.DistBlock:
		return min(max(floorDiv(i-1, (n+np-1)/np), 0), np-1)
	case ast.DistCyclic:
		return ((i-1)%np + np) % np
	}
	return (floorDiv(i-1, spec.BlockSize)%np + np) % np
}

// TestWindowLayout: for BLOCK, CYCLIC and CYCLIC(3), rank 1 and 2, every
// machine size and lower bounds on either side of 1, every subscript has
// a slot on its owner and on nobody else, the slots of a processor are
// 0..n-1 in subscript order, index inverts slot, an overlap widens a
// BLOCK by just that much, and sections move through clip, section.walk
// and gather exactly as element-by-element access moves them.
func TestWindowLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, spec := range []ast.DistSpec{decomp.Block, decomp.Cyclic, decomp.BlockCyclic(3)} {
		for _, shape := range []struct {
			lo, hi []int
			dim    int
		}{
			{[]int{1}, []int{17}, 0}, {[]int{0}, []int{11}, 0}, {[]int{3}, []int{12}, 0}, {[]int{-7}, []int{9}, 0},
			{[]int{1, 1}, []int{10, 6}, 0}, {[]int{0, 2}, []int{5, 13}, 1}, {[]int{-2, 4}, []int{8, 7}, 0},
		} {
			for _, np := range []int{1, 3, 4, 6} {
				name := fmt.Sprintf("%v %v:%v dim %d P=%d", spec, shape.lo, shape.hi, shape.dim, np)
				dim, lo, hi := shape.dim, shape.lo[shape.dim], shape.hi[shape.dim]
				shares := make([]*Array, np)
				for p := range shares {
					shares[p] = shareOf(spec, dim, np, p, shape.lo, shape.hi, 0, 0)
				}
				for i := lo; i <= hi; i++ {
					for p, a := range shares {
						slot := a.win.slot(i)
						if got := a.win.owner(i); got != ownerOf(spec, np, hi-lo+1, i) {
							t.Fatalf("%s: processor %d's window says %d owns subscript %d, it is %d", name, p, got, i, ownerOf(spec, np, hi-lo+1, i))
						}
						if (slot >= 0) != (p == ownerOf(spec, np, hi-lo+1, i)) {
							t.Fatalf("%s: subscript %d has slot %d on processor %d, its owner is %d", name, i, slot, p, ownerOf(spec, np, hi-lo+1, i))
						}
						if slot >= 0 && a.win.index(slot) != i {
							t.Fatalf("%s: slot %d of processor %d holds subscript %d, index says %d", name, slot, p, i, a.win.index(slot))
						}
					}
				}
				for p, a := range shares {
					for l := 0; l < a.win.n; l++ {
						if i := a.win.index(l); i < lo || i > hi || a.win.slot(i) != l || (l > 0 && i <= a.win.index(l-1)) {
							t.Fatalf("%s: processor %d's slot %d holds subscript %d out of order or out of bounds", name, p, l, i)
						}
					}
					if a.win.slot(lo-1) >= 0 || a.win.slot(hi+1) >= 0 {
						t.Fatalf("%s: processor %d has a slot outside the declared bounds", name, p)
					}
				}
				// sections: whatever clip says is stored is packed by the
				// strided walk, the rest element by element, and both
				// agree with at(); delivering the packed data to a fresh
				// share reproduces what this one holds of the section
				for trial := 0; trial < 20; trial++ {
					var b bounds
					b.n = len(shape.lo)
					for d := range shape.lo {
						b.lo[d] = shape.lo[d] - 1 + rng.Intn(shape.hi[d]-shape.lo[d]+2)
						b.hi[d] = b.lo[d] + rng.Intn(shape.hi[d]-b.lo[d]+2)
					}
					p := rng.Intn(np)
					a := shares[p]
					var bx box
					clip(a, &b, &bx)
					got := make([]float64, bx.elems)
					a.gather(&bx, got)
					idx := bx.lo
					fresh := shareOf(spec, dim, np, p, shape.lo, shape.hi, 0, 0)
					for k := range fresh.Data {
						fresh.Data[k] = -1
					}
					fresh.deliver(nil, &bx, got)
					for k, v := range got {
						want := math.NaN()
						if el := a.at(&idx); el != nil {
							want = *el
						}
						if at, _ := a.index(idx[:bx.n]); !math.IsNaN(want) && want != float64(at) {
							t.Fatalf("%s: processor %d holds %v at %v, seeded %d", name, p, want, idx[:bx.n], at)
						}
						if v != want && !(math.IsNaN(v) && math.IsNaN(want)) {
							t.Fatalf("%s: section %v:%v element %d packed as %v, element access reads %v (stored: %v)",
								name, bx.lo[:bx.n], bx.hi[:bx.n], k, v, want, bx.stored)
						}
						if back := fresh.at(&idx); back == nil || (*back != v && !math.IsNaN(v)) {
							t.Fatalf("%s: section %v:%v element %d delivered as %v, reads back %v", name, bx.lo[:bx.n], bx.hi[:bx.n], k, v, back)
						}
						bx.next(&idx)
					}
					// a BLOCK window holds a section in one piece iff it
					// holds both its ends
					if inside := bx.lo[dim] >= a.win.lo && bx.hi[dim] <= a.win.hi; spec.Kind == ast.DistBlock && bx.elems > 0 && bx.stored != inside {
						t.Fatalf("%s: section %v:%v stored=%v, window %d:%d", name, bx.lo[:bx.n], bx.hi[:bx.n], bx.stored, a.win.lo, a.win.hi)
					}
				}
			}
		}
	}
	// an overlap region widens a BLOCK window by its offsets, clipped to
	// the array, and starts as NaN; CYCLIC takes none
	a := shareOf(decomp.Block, 0, 4, 1, []int{1}, []int{32}, 2, 3)
	if a.win.lo != 7 || a.win.hi != 19 || len(a.Data) != 13 || !math.IsNaN(a.Data[0]) || a.Data[2] != 8 || !math.IsNaN(a.Data[12]) {
		t.Errorf("block 9:16 widened by -2,+3: window %d:%d, data %v", a.win.lo, a.win.hi, a.Data)
	}
	if a := shareOf(decomp.Block, 0, 4, 0, []int{1}, []int{32}, 2, 3); a.win.lo != 1 || a.win.hi != 11 {
		t.Errorf("block 1:8 widened by -2,+3: window %d:%d, want 1:11", a.win.lo, a.win.hi)
	}
}

// nodeArrays runs src on p processors, its arrays seeded with init, and
// returns every processor's main-program arrays as the node program left
// them, and the machine's statistics.
func nodeArrays(t *testing.T, src string, p int, dists map[string]*decomp.Dist, init map[string][]float64) ([]map[string]*Array, machine.Stats) {
	t.Helper()
	pl := Lower(parseProg(t, src), p, dists, nil, nil)
	m, ar := machine.New(machine.DefaultConfig(p)), pl.newArena(p)
	out := make([]map[string]*Array, p)
	for pid := 0; pid < p; pid++ {
		m.Go(pid, func(proc *machine.Proc) {
			arrays, err := pl.run(proc, Options{Init: init}, ar)
			if err != nil {
				t.Error(err)
			}
			out[proc.ID()] = map[string]*Array{}
			for slot, a := range arrays {
				if a != nil {
					out[proc.ID()][pl.main.names[slot]] = a
				}
			}
		})
	}
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	return out, m.Stats()
}

// TestMissingMessageIsNaN: a node program that reads a neighbour's
// element it was never sent computes NaN from it, at exactly that
// element of the assembled result; the run itself does not fail. The
// same program with the receive in place is right.
func TestMissingMessageIsNaN(t *testing.T) {
	const exchange = `
      if (my$p .GT. 0) then
        send x(my$p * 4 + 1) to my$p - 1
      endif
      if (my$p .LT. 3) then
        recv x(my$p * 4 + 5) from my$p + 1
      endif`
	dist := decomp.MustDist(decomp.NewDecomp(decomp.Block), []int{16}, 4)
	dists := map[string]*decomp.Dist{"x": dist, "y": dist}
	for _, comm := range []string{exchange, ""} {
		res, err := Lower(parseProg(t, fmt.Sprintf(`
      PROGRAM P
      PARAMETER (n$proc = 4)
      REAL x(16), y(16)
      my$p = myproc()
      do i = my$p * 4 + 1, my$p * 4 + 4
        x(i) = i
      enddo%s
      do i = my$p * 4 + 1, MIN(15, my$p * 4 + 4)
        y(i) = x(i+1)
      enddo
      END
`, comm)), 4, dists, nil, nil).Run(context.Background(), machine.DefaultConfig(4), Options{})
		if err != nil {
			t.Fatalf("exchange %q: %v", comm, err)
		}
		for i, v := range res.Arrays["y"] {
			want := float64(i + 2)
			switch {
			case i == 15:
				want = 0
			case comm == "" && i%4 == 3:
				want = math.NaN() // x(i+1) is the neighbour's first element
			}
			if v != want && !(math.IsNaN(v) && math.IsNaN(want)) {
				t.Errorf("exchange %q: y(%d) = %v, want %v", comm, i+1, v, want)
			}
		}
	}
}

// TestSiteBufferReuse: a broadcast outside every window lands in its
// site's buffer, one per (site, array) however often the site executes:
// a 1 024-iteration loop leaves the buffers, and their capacity, of a
// 64-iteration one.
func TestSiteBufferReuse(t *testing.T) {
	buffers := func(iters int) (count, capacity int) {
		dist := decomp.MustDist(decomp.NewDecomp(decomp.Collapsed, decomp.Cyclic), []int{16, 16}, 4)
		nodes, _ := nodeArrays(t, fmt.Sprintf(`
      PROGRAM P
      REAL a(16,16)
      do k = 1, %d
        j = MOD(k, 16) + 1
        broadcast a(1:16,j) from MOD(j - 1, 4)
        postbcast a(2:9,j) from MOD(j - 1, 4) tag 7
        waitbcast a tag 7
      enddo
      END
`, iters), 4, map[string]*decomp.Dist{"a": dist}, nil)
		for _, arrays := range nodes {
			for _, b := range arrays["a"].bufs {
				count++
				capacity += cap(b.data)
			}
		}
		return count, capacity
	}
	c64, cap64 := buffers(64)
	c1024, cap1024 := buffers(1024)
	if c64 != 8 || cap64 != 4*(16+8) || c1024 != c64 || cap1024 != cap64 {
		t.Errorf("64 iterations leave %d buffers of %d words, 1 024 leave %d of %d; want 8 of 96 both times", c64, cap64, c1024, cap1024)
	}
}

// TestRemapKeepsSharesAndStorage: BLOCK → CYCLIC → BLOCK round trips
// keep every value with its new owner, leave a processor holding its
// share only, and after the first trip reuse the two pieces of storage
// the first one allocated. A remap delivers to owners, and only by
// message: after each step of BLOCK → CYCLIC → BLOCK and of (BLOCK,:) →
// (:,BLOCK) → (BLOCK,:) over a ramp, every processor holds the ramp on
// all of its new share, the way back regrows no storage, and every
// message sent was received.
func TestRemapKeepsSharesAndStorage(t *testing.T) {
	room := func(nodes []map[string]*Array) (n int) {
		for _, arrays := range nodes {
			n += cap(arrays["x"].Data) + cap(arrays["x"].spare)
		}
		return n
	}
	for _, c := range []struct {
		decl  string
		sizes []int
		steps [3]string // the initial distribution, there, and back
	}{
		{"x(24)", []int{24}, [3]string{"BLOCK", "CYCLIC", "BLOCK"}},
		{"x(12,12)", []int{12, 12}, [3]string{"BLOCK,:", ":,BLOCK", "BLOCK,:"}},
	} {
		for _, np := range []int{3, 4, 6} {
			elems := 1
			for _, n := range c.sizes {
				elems *= n
			}
			ramp := make([]float64, elems)
			for i := range ramp {
				ramp[i] = float64(3*i + 1)
			}
			specs := func(step string) (out []ast.DistSpec) {
				for _, f := range strings.Split(step, ",") {
					out = append(out, map[string]ast.DistSpec{"BLOCK": decomp.Block, "CYCLIC": decomp.Cyclic, ":": decomp.Collapsed}[f])
				}
				return out
			}
			rooms := [3]int{}
			for steps := 1; steps <= 2; steps++ {
				src := "      PROGRAM P\n      REAL " + c.decl + "\n"
				for _, step := range c.steps[1 : steps+1] {
					src += "      remap x(" + step + ")\n"
				}
				dist := decomp.MustDist(decomp.NewDecomp(specs(c.steps[0])...), c.sizes, np)
				nodes, stats := nodeArrays(t, src+"      END\n", np, map[string]*decomp.Dist{"x": dist}, map[string][]float64{"x": ramp})
				rooms[steps] = room(nodes)
				var sent, received int64
				for _, ps := range stats.PerProc {
					sent, received = sent+ps.Sent, received+ps.Received
				}
				if sent != received || sent == 0 || stats.Remaps != int64(steps) {
					t.Errorf("%s P=%d, %d remaps: %d messages sent, %d received, %d remaps counted", c.decl, np, steps, sent, received, stats.Remaps)
				}
				final := decomp.MustDist(decomp.NewDecomp(specs(c.steps[steps])...), c.sizes, np)
				for p, arrays := range nodes {
					x := arrays["x"]
					dim := final.DistDim()
					own, held := newWindow(final, p, x.Lo[dim], x.Hi[dim]), 0
					x.each(nil, &own, func(idx [maxRank]int) {
						at, _ := x.index(idx[:len(x.Lo)])
						if got := x.load(&idx); got != ramp[at] {
							t.Errorf("%s P=%d after remap to (%s): processor %d holds %v at %v, want %v", c.decl, np, c.steps[steps], p, got, idx[:len(x.Lo)], ramp[at])
						}
						held++
					})
					if held != len(ramp)/np || len(x.Data) != held {
						t.Errorf("%s P=%d after remap to (%s): processor %d owns %d elements and stores %d, want %d", c.decl, np, c.steps[steps], p, held, len(x.Data), len(ramp)/np)
					}
				}
			}
			if rooms[1] != 2*len(ramp) || rooms[2] != rooms[1] {
				t.Errorf("%s P=%d: room for %d elements after the way there, %d after the way back, want %d both times", c.decl, np, rooms[1], rooms[2], 2*len(ramp))
			}
		}
	}

	run := func(trips int) []map[string]*Array {
		dist := decomp.MustDist(decomp.NewDecomp(decomp.Block), []int{24}, 4)
		nodes, _ := nodeArrays(t, fmt.Sprintf(`
      PROGRAM P
      REAL x(24)
      my$p = myproc()
      do i = my$p * 6 + 1, my$p * 6 + 6
        x(i) = 10 * i
      enddo
      do k = 1, %d
        remap x(CYCLIC)
        do i = my$p + 1, 24, 4
          x(i) = x(i) + 1
        enddo
        remap x(BLOCK)
      enddo
      END
`, trips), 4, map[string]*decomp.Dist{"x": dist}, nil)
		return nodes
	}
	one, five := run(1), run(5)
	if room(one) != 2*24 || room(five) != room(one) {
		t.Errorf("one round trip leaves room for %d elements, five for %d; want 48 both times", room(one), room(five))
	}
	for p, arrays := range five {
		x := arrays["x"]
		if x.win == nil || x.win.lo != p*6+1 || x.win.hi != p*6+6 || len(x.Data) != 6 {
			t.Fatalf("processor %d ends with window %+v and %d elements, want its block of 6", p, x.win, len(x.Data))
		}
		for l, v := range x.Data {
			if want := float64(10*(p*6+1+l) + 5); v != want {
				t.Errorf("processor %d: x(%d) = %v after five round trips, want %v", p, p*6+1+l, v, want)
			}
		}
	}
}

// TestReceiversClosedForm: the group a "to" clause names, computed
// without a window, is exactly the processors whose window of lo..hi
// holds a subscript (and, from subscript 1 on, that decomp's owner
// function names), as one modular range, for BLOCK, CYCLIC and
// CYCLIC(k) on P up to 16, arrays declared from below 1 (the windows'
// shift) and above it (BLOCK's last owner takes the rest), single
// subscripts, ranges wider than P blocks and empty ones.
func TestReceiversClosedForm(t *testing.T) {
	const n = 50
	for _, spec := range []ast.DistSpec{decomp.Block, decomp.Cyclic, decomp.BlockCyclic(2), decomp.BlockCyclic(3)} {
		for _, np := range []int{1, 2, 3, 4, 7, 16} {
			dist := decomp.MustDist(decomp.NewDecomp(spec), []int{n}, np)
			for _, first := range []int{1, 0, -7, 4} {
				for lo := first; lo < first+n; lo++ {
					for hi := lo - 1; hi < first+n; hi++ {
						g, owners := receivers(dist, lo, hi), 0
						var owned uint32 // by decomp's owner function, defined from subscript 1
						for i := lo; i <= hi && lo >= 1; i++ {
							owned |= 1 << dist.OwnerIndex(i)
						}
						for p := range np {
							w := newWindow(dist, p, lo, hi)
							if owns := w.n > 0; g.Has(p, np) != owns || lo >= 1 && owned>>p&1 == 1 != owns {
								t.Fatalf("%s P=%d %d:%d: group %+v has processor %d: %v, its window holds %d", dist.Key(), np, lo, hi, g, p, !owns, w.n)
							} else if owns {
								owners++
							}
						}
						// a modular range of exactly the owners: as many, and
						// (short of all) starting at one whose predecessor is not
						if min(max(g.N, 0), np) != owners || owners > 0 && owners < np && (!g.Has(g.First, np) || g.Has(g.First-1, np)) {
							t.Fatalf("%s P=%d %d:%d: group %+v is not the range of the %d owners", dist.Key(), np, lo, hi, g, owners)
						}
					}
				}
			}
		}
	}
}

// TestEmptyShareIsNoReceiver is the premise of commSite.group's early
// exit: a processor whose share of the whole array is empty is in the
// group of no section of it, for BLOCK, CYCLIC and CYCLIC(k), every
// extent up to 40 from lower bounds -3, 0 and 1, P up to 17 and every
// lo..hi.
func TestEmptyShareIsNoReceiver(t *testing.T) {
	checked := 0
	for _, spec := range []ast.DistSpec{decomp.Block, decomp.Cyclic, decomp.BlockCyclic(2), decomp.BlockCyclic(3)} {
		for n := 1; n <= 40; n++ {
			for np := 1; np <= 17; np++ {
				dist := decomp.MustDist(decomp.NewDecomp(spec), []int{n}, np)
				for _, first := range []int{-3, 0, 1} {
					last := first + n - 1
					var idle []int
					for p := range np {
						if w := newWindow(dist, p, first, last); w.n == 0 {
							idle = append(idle, p)
						}
					}
					for lo := first; lo <= last; lo++ {
						for hi := lo; hi <= last; hi++ {
							g := receivers(dist, lo, hi)
							for _, p := range idle {
								if g.Has(p, np) {
									t.Fatalf("%s P=%d %d:%d of %d:%d: group %+v has processor %d, which holds nothing", dist.Key(), np, lo, hi, first, last, g, p)
								}
								checked++
							}
						}
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no processor held nothing")
	}
}
