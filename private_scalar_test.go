package fortd

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fortd/internal/explain"
	"fortd/internal/progen"
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
// column k that daxpy reads, a(k+1:n,k), once per elimination step, so
// its traffic follows from n and P alone: (n-1)(P-1) messages and
// (P-1)·Σ(n-k) words, to the last unit.
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
		msgs, words := (c.n-1)*(c.p-1), 0
		for k := 1; k < c.n; k++ {
			words += (c.p - 1) * (c.n - k)
		}
		if got := fmt.Sprint(res.Stats.Messages, res.Stats.Words); got != fmt.Sprint(msgs, words) {
			t.Errorf("n=%d P=%d: messages, words = %s, closed form %d %d", c.n, c.p, got, msgs, words)
		}
	}
}
