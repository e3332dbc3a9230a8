package fortd

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fortd/internal/ast"
	"fortd/internal/decomp"
	"fortd/internal/explain"
	"fortd/internal/machine"
	"fortd/internal/progen"
	"fortd/internal/trace"
)

// tempPrograms draws random programs with scalar temporaries.
func tempPrograms(n int) []string {
	var out []string
	for seed := int64(1); seed <= int64(n); seed++ {
		g := &progen.Gen{Rng: rand.New(rand.NewSource(seed)), N: 24 + int(seed%3)*8, P: []int{3, 4, 6}[seed%3], Temps: true}
		out = append(out, g.Generate())
	}
	return out
}

// TestPrivateScalarRandomPrograms: random programs with scalar
// temporaries — adopted in aligned loops and before guarded calls,
// refused when live out or read from another owner — equal the
// sequential reference under every strategy.
func TestPrivateScalarRandomPrograms(t *testing.T) {
	adopted := 0
	for i, src := range tempPrograms(120) {
		for _, st := range digestStrategies {
			ex := NewExplain()
			opts := DefaultOptions()
			opts.Strategy, opts.Explain = st.s, ex
			prog, err := Compile(src, opts)
			if err != nil {
				t.Fatalf("seed %d %s: %v\n%s", i+1, st.name, err, src)
			}
			r := NewRunner(WithInit(RampInit(src)))
			res, err := r.Run(prog)
			if err != nil {
				t.Fatalf("seed %d %s: %v\n%s", i+1, st.name, err, prog.Listing())
			}
			ref, err := r.RunReference(prog)
			if err != nil {
				t.Fatal(err)
			}
			for arr, want := range ref.Arrays {
				if d := maxAbsDiff(res.Arrays[arr], want); d > 1e-9 {
					t.Fatalf("seed %d %s: %s differs from the sequential reference by %g\n%s\n%s", i+1, st.name, arr, d, src, prog.Listing())
				}
			}
			for _, r := range ex.Remarks() {
				if r.Name == "private-scalar" && r.Kind == explain.Applied {
					adopted++
				}
			}
		}
	}
	t.Logf("%d scalar assignments adopted a constraint", adopted)
	if adopted < 50 {
		t.Errorf("only %d scalar assignments adopted a constraint: the generator does not reach the rule", adopted)
	}
}

// maxAbsDiff is the largest elementwise difference of two arrays (Inf
// when their lengths differ; two NaNs in one place agree).
func maxAbsDiff(got, want []float64) float64 {
	if len(got) != len(want) {
		return math.Inf(1)
	}
	worst := 0.0
	for i := range want {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if worst = math.Max(worst, math.Abs(got[i]-want[i])); math.IsNaN(worst) {
			return math.Inf(1)
		}
	}
	return worst
}

// TestPrivateScalarDifferential runs every row of the private-scalar
// table (testdata/private; internal/partition checks what the rule
// decides for each) and every delayed-section shape of
// testdata/sections under each strategy, with the schedule pass on and
// off, at five machine sizes, against the sequential reference. Main
// program scalars are seeded, so a row whose scalar is live on entry
// reads the seed.
func TestPrivateScalarDifferential(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "private", "*.f"))
	more, _ := filepath.Glob(filepath.Join("testdata", "sections", "*.f"))
	if files = append(files, more...); err != nil || len(files) < 18 {
		t.Fatalf("testdata/private, testdata/sections: %v %v", files, err)
	}
	for _, f := range files {
		buf, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		src, name := string(buf), strings.TrimSuffix(filepath.Base(f), ".f")
		for _, st := range digestStrategies {
			for _, overlap := range []bool{true, false} {
				for _, p := range []int{1, 3, 4, 6, 16} {
					opts := DefaultOptions().WithOverlap(overlap)
					opts.Strategy, opts.P = st.s, p
					prog, err := Compile(src, opts)
					if err != nil {
						t.Fatalf("%s %s: %v", name, st.name, err)
					}
					r := NewRunner(WithInit(RampInit(src)), WithInitScalars(map[string]float64{"t": 3, "m": 2}))
					res, err := r.Run(prog)
					if err != nil {
						t.Fatalf("%s %s overlap=%v P=%d: %v\n%s", name, st.name, overlap, p, err, prog.Listing())
					}
					ref, err := r.RunReference(prog)
					if err != nil {
						t.Fatal(err)
					}
					for arr, want := range ref.Arrays {
						if d := maxAbsDiff(res.Arrays[arr], want); d > 1e-9 {
							t.Errorf("%s %s overlap=%v P=%d: %s differs from the sequential reference by %g\n%s",
								name, st.name, overlap, p, arr, d, prog.Listing())
						}
					}
					// t is in COMMON /blk/, and bump adds 1 to it between
					// the assignment t = b(j) * 2 and the use a(j) = t + 1
					if name == "neg_common" {
						for run, res := range map[string]*Result{"compiled": res, "reference": ref} {
							for j, v := range res.Arrays["a"] {
								if v != float64(j+1)+2 {
									t.Fatalf("neg_common %s overlap=%v P=%d: %s run leaves a(%d) = %v, want %d",
										st.name, overlap, p, run, j+1, v, j+3)
								}
							}
						}
					}
					// a scalar temporary costs a partitioned loop nothing
					if name == "pos_temp" && st.s == Interprocedural {
						if res.Stats.Messages != 0 || prog.Report().LoopsReduced != 2 || prog.Report().Guards != 0 {
							t.Errorf("pos_temp P=%d: %d messages, report %s; want none, both loops reduced, no guard",
								p, res.Stats.Messages, prog.Report())
						}
					}
				}
			}
		}
	}
}

// TestDgefaClosedFormTraffic: compiled dgefa broadcasts the part of
// column k that daxpy reads, a(k+1:n,k), once per elimination step, to
// the owners of columns k+1..n, the only processors that run daxpy: the
// root and min(P-1, n-k) others. Its traffic follows from n and P alone:
// Σ min(P-1, n-k) messages and Σ min(P-1, n-k)·(n-k) words, to the last
// unit.
func TestDgefaClosedFormTraffic(t *testing.T) {
	for _, c := range []struct{ n, p int }{{16, 4}, {64, 4}, {96, 4}, {128, 8}, {128, 1024}} {
		if c.p == 1024 && testing.Short() {
			continue
		}
		prog, err := Compile(DgefaSrc(c.n, c.p), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		res, err := NewRunner(WithInit(map[string][]float64{"a": DgefaMatrix(c.n)})).Run(prog)
		if err != nil {
			t.Fatal(err)
		}
		msgs, words := 0, 0
		for k := 1; k < c.n; k++ {
			msgs += min(c.p-1, c.n-k)
			words += min(c.p-1, c.n-k) * (c.n - k)
		}
		if got := fmt.Sprint(res.Stats.Messages, res.Stats.Words); got != fmt.Sprint(msgs, words) {
			t.Errorf("n=%d P=%d: messages, words = %s, closed form %d %d", c.n, c.p, got, msgs, words)
		}
	}
}

// remapLayout is one side of a remap as the test states it: dimension dim
// of the array is BLOCK (k = 0) or CYCLIC(k).
type remapLayout struct {
	text   string
	dim, k int
}

// owner is the test's own owner function: BLOCK in runs of ceil(n/P),
// CYCLIC(k) in blocks of k dealt round-robin, subscripts from 1.
func (l remapLayout) owner(n, p, i int) int {
	if l.k == 0 {
		return (i - 1) / ((n + p - 1) / p)
	}
	return (i - 1) / l.k % p
}

// TestRemapClosedFormTraffic: a remap is an all-to-all personalized
// exchange and costs what its messages cost. For six pairs of layouts at
// four (n, P), the remap site's row of the trace has one message per
// ordered pair of processors of which the second owns, after, an element
// the first owned before, and one word per element that changes owner
// (decomp.RemapWords) — all counted here by the test's own owner
// functions; every message sent is received; the assembled array is the
// input; and every processor's clock after the remap is what the model
// says — its sends in ascending partner order at α each, then its latest
// arrival, a message of w words arriving α + β·w after its send — which
// on a balanced remap (every pair exchanges the same w words) is P·α + β·w
// on the last processor. (4096, 256) is the benchmark's remap: n/P < P,
// 4 080 messages of one word, 15 or 16 partners each.
func TestRemapClosedFormTraffic(t *testing.T) {
	block, cyclic := remapLayout{"BLOCK", 0, 0}, remapLayout{"CYCLIC", 0, 1}
	balanced := 0
	for _, c := range []struct {
		from, to remapLayout
		rank     int
	}{
		{block, cyclic, 1}, {cyclic, block, 1}, {block, remapLayout{"CYCLIC(3)", 0, 3}, 1},
		{remapLayout{"CYCLIC(2)", 0, 2}, remapLayout{"CYCLIC(5)", 0, 5}, 1},
		{remapLayout{"BLOCK,:", 0, 0}, remapLayout{":,BLOCK", 1, 0}, 2},
		{remapLayout{":,CYCLIC", 1, 1}, remapLayout{"BLOCK,:", 0, 0}, 2},
	} {
		for _, sz := range []struct{ n, p int }{{32, 4}, {100, 4}, {30, 7}, {4096, 256}} {
			n, p := sz.n, sz.p
			if c.rank == 2 && n == 4096 {
				continue // rank 2 at the three smaller sizes
			}
			name := fmt.Sprintf("(%s) to (%s) n=%d P=%d", c.from.text, c.to.text, n, p)
			// what moves, from whom to whom
			words := make([][]int, p)
			for q := range words {
				words[q] = make([]int, p)
			}
			elems, pairs, moved := n, 0, 0
			if c.rank == 2 {
				elems = n * n
			}
			for e := 0; e < elems; e++ {
				idx := [2]int{e + 1, 1}
				if c.rank == 2 {
					idx = [2]int{e/n + 1, e%n + 1}
				}
				if from, to := c.from.owner(n, p, idx[c.from.dim]), c.to.owner(n, p, idx[c.to.dim]); from != to {
					if words[from][to]++; words[from][to] == 1 {
						pairs++
					}
					moved++
				}
			}
			if c.from == block && c.to == cyclic && n == 4096 {
				for q, row := range words {
					partners := 0
					for _, w := range row {
						partners += min(w, 1)
					}
					if partners != 15 && partners != 16 {
						t.Errorf("%s: processor %d has %d partners, want 15 or 16", name, q, partners)
					}
				}
				if pairs != 4080 || moved != 4080 {
					t.Errorf("%s: %d pairs, %d elements move, want 4 080 of each", name, pairs, moved)
				}
			}
			decl := fmt.Sprintf("x(%d)", n)
			if c.rank == 2 {
				decl = fmt.Sprintf("x(%d,%d)", n, n)
			}
			tr := NewTrace()
			res, err := NewRunner(WithInit(map[string][]float64{"x": Ramp(elems)}), WithTrace(tr)).RunSPMD(fmt.Sprintf(`
      PROGRAM P
      PARAMETER (n$proc = %d)
      REAL %s
      DISTRIBUTE x(%s)
      remap x(%s)
      END
`, p, decl, c.from.text, c.to.text), p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var site trace.SiteRow
			for _, row := range trace.Distill(tr.Events()).Sites {
				if row.Op == "remap" {
					site = row
				}
			}
			sizes := []int{n, n}[:c.rank]
			want := decomp.MustDist(c.from.decomp(c.rank), sizes, p).RemapWords(decomp.MustDist(c.to.decomp(c.rank), sizes, p))
			if site.Msgs != int64(pairs) || site.Words != int64(moved) || moved != want {
				t.Errorf("%s: the remap sends %d messages, %d words; %d pairs share %d elements that move (decomp.RemapWords: %d)",
					name, site.Msgs, site.Words, pairs, moved, want)
			}
			var sent, received int64
			for _, ps := range res.Stats.PerProc {
				sent, received = sent+ps.Sent, received+ps.Received
			}
			if sent != received || sent != int64(pairs) || res.Stats.Remaps != 1 {
				t.Errorf("%s: %d messages sent, %d received, %d remaps, want %d, %d, 1", name, sent, received, res.Stats.Remaps, pairs, pairs)
			}
			if d := maxAbsDiff(res.Arrays["x"], Ramp(elems)); d != 0 {
				t.Errorf("%s: the assembled array differs from the input by %g", name, d)
			}
			// the clocks, accumulated as the machine accumulates them
			cfg := machine.DefaultConfig(p)
			clock, sentAt := make([]float64, p), make([][]float64, p)
			for q := range clock {
				sentAt[q] = make([]float64, p)
				for r := range clock {
					if words[q][r] > 0 {
						clock[q] += cfg.Latency
						sentAt[q][r] = clock[q]
					}
				}
			}
			for q := range clock {
				for r := range clock {
					if words[r][q] > 0 {
						clock[q] = max(clock[q], sentAt[r][q]+cfg.Latency+float64(words[r][q])*cfg.PerWord)
					}
				}
				if got := res.Stats.PerProc[q].Clock; got != clock[q] {
					t.Errorf("%s: processor %d ends the remap at %v µs, the model says %v", name, q, got, clock[q])
				}
			}
			w := words[0][1]
			for q := range words {
				for r := range words {
					if q != r && words[q][r] != words[0][1] {
						w = 0
					}
				}
			}
			if w > 0 {
				balanced++
				if last := float64(p)*cfg.Latency + cfg.PerWord*float64(w); clock[p-1] != last || res.Stats.Time != last {
					t.Errorf("%s: every pair exchanges %d words and the last processor is done at %v µs (the run: %v); want P·α + β·w = %v",
						name, w, clock[p-1], res.Stats.Time, last)
				}
			}
		}
	}
	if balanced != 8 {
		t.Errorf("%d balanced remaps met the closed form P·α + β·w, want 8: BLOCK and CYCLIC both ways and the two of rank 2, at (32, 4) and (100, 4)", balanced)
	}
}

// decomp is the layout as the compiler's own description of it, for an
// array of the given rank.
func (l remapLayout) decomp(rank int) decomp.Decomp {
	specs := make([]ast.DistSpec, rank)
	for d := range specs {
		specs[d] = decomp.Collapsed
	}
	switch l.k {
	case 0:
		specs[l.dim] = decomp.Block
	case 1:
		specs[l.dim] = decomp.Cyclic
	default:
		specs[l.dim] = decomp.BlockCyclic(l.k)
	}
	return decomp.NewDecomp(specs...)
}
