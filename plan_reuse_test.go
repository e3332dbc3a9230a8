package fortd

import (
	"bytes"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"fortd/internal/progen"
)

// A Program lowers its node program to an execution plan on its first
// Run and its source program on its first RunReference, and every later
// run shares that plan. These tests pin the sharing: concurrent runs of
// one Program equal serial runs of another, a repeat run allocates
// what a run needs besides its plan, and the plan's size.

// sameValues reports whether two result arrays hold the same values, NaN
// equal to NaN (an element a processor never received reads NaN).
func sameValues(got, want map[string][]float64) bool {
	if len(got) != len(want) {
		return false
	}
	for name, w := range want {
		if !slices.EqualFunc(got[name], w, func(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }) {
			return false
		}
	}
	return true
}

// commonConcurrentSrc shares the scalar k and the BLOCK array x through
// COMMON /blk/, which mid passes through to leaf without declaring it:
// each run binds the members afresh, and no run sees another's.
const commonConcurrentSrc = `
      PROGRAM CONC
      PARAMETER (n$proc = 4)
      REAL x(16), b(16)
      COMMON /blk/ k, x
      DISTRIBUTE x(BLOCK)
      DISTRIBUTE b(BLOCK)
      call setk
      do i = 1, 16
        x(i) = x(i) + k
      enddo
      call mid(b)
      END
      SUBROUTINE setk
      REAL x(16)
      COMMON /blk/ k, x
      k = k + 3
      END
      SUBROUTINE mid(b)
      REAL b(16)
      do i = 1, 15
        call leaf(b, i)
      enddo
      END
      SUBROUTINE leaf(b, i)
      REAL b(16), x(16)
      COMMON /blk/ k, x
      b(i) = x(i+1) * k
      END
`

// TestProgramRunsConcurrently races goroutines on the first Run and the
// first RunReference of one compiled Program, which lower its plans,
// and has them run it with different inputs, a trace and a fault plan.
// In the "shared units" lane they race on two Programs compiled through
// one summary cache, an edit and its base, whose plans share the code of
// every unit but the edited one. In the "dgefa idle" lane half the
// processors hold no column, so they leave each broadcast before its
// group is worked out. Each result must equal its serial
// twin's, run on a Program of its own: arrays, Stats.Time, Messages,
// Words and Flops, and the trace. ci.sh runs it under -race.
func TestProgramRunsConcurrently(t *testing.T) {
	synth := SyntheticProcsSrc(8, 4, 32, 4)
	synthInits := []map[string][]float64{RampInit(synth), scaled(RampInit(synth), -0.5)}
	for _, w := range []struct {
		name  string
		srcs  []string // more than one: compiled through one cache
		inits []map[string][]float64
	}{
		{"synth", []string{synth}, synthInits},
		{"dgefa", []string{DgefaSrc(32, 4)}, []map[string][]float64{{"a": DgefaMatrix(32)}, scaled(map[string][]float64{"a": DgefaMatrix(32)}, 3)}},
		{"dgefa idle", []string{DgefaSrc(16, 32)}, []map[string][]float64{{"a": DgefaMatrix(16)}, scaled(map[string][]float64{"a": DgefaMatrix(16)}, 3)}}, // 16 of the 32 processors hold no column
		{"common", []string{commonConcurrentSrc}, []map[string][]float64{RampInit(commonConcurrentSrc), scaled(RampInit(commonConcurrentSrc), 2)}},
		{"shared units", []string{strings.Replace(synth, "+ 9.0\n", "+ 1000.0\n", 1), synth}, synthInits},
	} {
		t.Run(w.name, func(t *testing.T) {
			opts := DefaultOptions()
			if len(w.srcs) > 1 {
				opts.Cache = NewSummaryCache()
			}
			var shared, twins []*Program
			for _, src := range w.srcs {
				p, err := Compile(src, opts)
				if err != nil {
					t.Fatal(err)
				}
				twin, err := Compile(src, DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				shared, twins = append(shared, p), append(twins, twin)
			}
			// one case per runner: each input as a run and as a reference
			// run, then a traced and a faulted run of the first input
			type runCase struct {
				ref    bool
				runner func(tr *Trace) *Runner
			}
			var cases []runCase
			for _, init := range w.inits {
				for _, ref := range []bool{false, true} {
					cases = append(cases, runCase{ref, func(*Trace) *Runner { return NewRunner(WithInit(init)) }})
				}
			}
			cases = append(cases,
				runCase{false, func(tr *Trace) *Runner { return NewRunner(WithInit(w.inits[0]), WithTrace(tr)) }},
				runCase{false, func(*Trace) *Runner { return NewRunner(WithInit(w.inits[0]), WithFaults(dgefaFaultPlan())) }})
			type outcome struct {
				res   *Result
				trace []byte
				err   error
			}
			do := func(p *Program, c runCase) outcome {
				tr := NewTrace()
				r := c.runner(tr)
				var o outcome
				if c.ref {
					o.res, o.err = r.RunReference(p)
				} else {
					o.res, o.err = r.Run(p)
				}
				var buf bytes.Buffer
				if err := tr.WriteJSONL(&buf); err != nil {
					t.Error(err)
				}
				o.trace = buf.Bytes()
				return o
			}
			// case i of program k is want[k*len(cases)+i]
			want := make([]outcome, len(twins)*len(cases))
			for i := range want {
				if want[i] = do(twins[i/len(cases)], cases[i%len(cases)]); want[i].err != nil {
					t.Fatalf("serial case %d: %v", i, want[i].err)
				}
			}
			const copies = 3
			got := make([]outcome, copies*len(want))
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					<-start
					k := i % len(want)
					got[i] = do(shared[k/len(cases)], cases[k%len(cases)])
				}(i)
			}
			close(start)
			wg.Wait()
			for i, g := range got {
				c, ws := i%len(want), want[i%len(want)]
				switch {
				case g.err != nil:
					t.Errorf("case %d: %v", c, g.err)
				case !sameValues(g.res.Arrays, ws.res.Arrays):
					t.Errorf("case %d: arrays differ from the serial run's", c)
				case g.res.Stats.Time != ws.res.Stats.Time || g.res.Stats.Messages != ws.res.Stats.Messages ||
					g.res.Stats.Words != ws.res.Stats.Words || g.res.Stats.Flops != ws.res.Stats.Flops:
					t.Errorf("case %d: stats %v, serial run %v", c, g.res.Stats, ws.res.Stats)
				case !bytes.Equal(g.trace, ws.trace):
					t.Errorf("case %d: the trace differs from the serial run's (%d vs %d bytes)", c, len(g.trace), len(ws.trace))
				}
			}
		})
	}
}

// scaled returns a copy of init with every value times k.
func scaled(init map[string][]float64, k float64) map[string][]float64 {
	out := map[string][]float64{}
	for name, vals := range init {
		for _, v := range vals {
			out[name] = append(out[name], k*v)
		}
	}
	return out
}

// TestRepeatRunAllocBudget bounds what a run of a Program that has run
// before allocates: the machine, the processors' frames and storage and
// the assembled result, and no plan. The budget is the count measured
// when it was last set plus 10 %; lower it when a change lowers it.
func TestRepeatRunAllocBudget(t *testing.T) {
	const budget = 1117 // 1 015 measured under ci.sh's -race (887 without; 25 482 while every run lowered the program) + 10 %
	src := SyntheticProcsSrc(32, 8, 32, 4)
	prog, err := Compile(src, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(WithInit(RampInit(src)))
	allocs := testing.AllocsPerRun(5, func() { // its warm-up run lowers the plan
		if _, err := r.Run(prog); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per repeat run (budget %d)", allocs, budget)
	if allocs > budget {
		t.Errorf("a repeat run allocates %.0f objects, budget %d", allocs, budget)
	}
}

// TestLoweringBytesBudget bounds the size of a Program's plan: the bytes
// its first run allocates beyond a repeat run's. The plan lives as long
// as the Program, so this is memory a retained program keeps. The budget
// is the bytes measured when it was last set plus 10 %.
func TestLoweringBytesBudget(t *testing.T) {
	const budget = 1349031 // 1 226 392 measured under ci.sh's -race (1 226 152 without) + 10 %
	src := SyntheticProcsSrc(32, 8, 32, 4)
	prog, err := Compile(src, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(WithInit(RampInit(src)))
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := r.Run(prog); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first := run()
	const repeats = 5
	var repeat uint64
	for i := 0; i < repeats; i++ {
		repeat += run()
	}
	bytes := int64(first) - int64(repeat/repeats)
	t.Logf("the plan is %d bytes: a first run allocates %d, a repeat run %d (budget %d)", bytes, first, repeat/repeats, budget)
	if bytes > budget {
		t.Errorf("lowering allocates %d bytes, budget %d", bytes, budget)
	}
}

// TestWarmPlanMatchesCold holds a plan that takes unit code from the
// summary cache to a cold one. For every testdata program that compiles
// and twenty progen programs, a cache first compiles and runs an edit of
// the program's last unit, which lowers every unit but that one as the
// program has it; the program compiled through the same cache then runs
// on their code, linked into its own plan, and must equal a run of the
// program compiled without a cache: arrays (NaN equal to NaN), Stats and
// the JSONL trace, in the compiled run and the reference run alike.
func TestWarmPlanMatchesCold(t *testing.T) {
	type program struct{ name, src string }
	var progs []program
	err := filepath.WalkDir("testdata", func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(path, ".f") {
			b, rerr := os.ReadFile(path)
			progs = append(progs, program{path, string(b)})
			return rerr
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 20; seed++ {
		g := &progen.Gen{Rng: rand.New(rand.NewSource(seed)), N: 24 + int(seed%3)*8, P: []int{3, 4, 6}[seed%3]}
		progs = append(progs, program{fmt.Sprintf("progen/%02d", seed), g.Generate()})
	}
	outcome := func(p *Program, ref bool, init map[string][]float64) (string, *Result) {
		tr := NewTrace()
		r := NewRunner(WithInit(init), WithTrace(tr))
		run := r.Run
		if ref {
			run = r.RunReference
		}
		res, err := run(p)
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(err) + "\n" + buf.String(), res
	}
	compared, edited := 0, 0
	for _, c := range progs {
		cold, err := Compile(c.src, DefaultOptions())
		if err != nil {
			continue
		}
		opts := DefaultOptions()
		opts.Cache = NewSummaryCache()
		init := RampInit(c.src)
		if edit, err := Compile(editLastUnit(c.src), opts); err == nil {
			outcome(edit, false, init)
			outcome(edit, true, init)
			edited++
		}
		warm, err := Compile(c.src, opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, ref := range []bool{false, true} {
			got, gres := outcome(warm, ref, init)
			want, wres := outcome(cold, ref, init)
			switch {
			case got != want:
				t.Errorf("%s (reference %v): the warm plan's error or trace differs from the cold plan's", c.name, ref)
			case wres == nil:
			case !sameValues(gres.Arrays, wres.Arrays):
				t.Errorf("%s (reference %v): arrays differ from the cold plan's", c.name, ref)
			case !reflect.DeepEqual(gres.Stats, wres.Stats):
				t.Errorf("%s (reference %v): stats %v, cold plan %v", c.name, ref, gres.Stats, wres.Stats)
			}
		}
		compared++
	}
	if compared < 60 || edited < compared-5 {
		t.Errorf("compared %d programs, %d of them after an edit, want at least 60, and all but 5 edited", compared, edited)
	}
	t.Logf("compared %d programs, %d after an edit", compared, edited)
}

// editLastUnit assigns a fresh scalar before the last END of src: an
// edit of the last unit that moves no other unit's lines.
func editLastUnit(src string) string {
	lines := strings.SplitAfter(src, "\n")
	for i := len(lines) - 1; i >= 0; i-- {
		if strings.EqualFold(strings.TrimSpace(lines[i]), "END") {
			return strings.Join(lines[:i], "") + "      kedit = 1\n" + strings.Join(lines[i:], "")
		}
	}
	return src
}
