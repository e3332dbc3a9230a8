package fortd

import (
	"fmt"
	"runtime"
	"testing"

	"fortd/internal/profile"
	"fortd/internal/trace"
)

// The benchmark harness regenerates every measurable table/figure of
// the paper. Wall-clock time measures this implementation; the figures
// of merit for the paper's claims are the reported custom metrics:
// sim_µs (simulated parallel execution time), msgs and words
// (communication), and remaps — compare them across the paired
// benchmarks exactly as the paper compares its code variants.

func mustCompile(b *testing.B, src string, opts Options) *Program {
	b.Helper()
	p, err := Compile(src, opts)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func runOnce(b *testing.B, p *Program, init map[string][]float64) *Result {
	b.Helper()
	res, err := NewRunner(WithInit(init)).Run(p)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func report(b *testing.B, res *Result) {
	b.ReportMetric(res.Stats.Time, "sim_µs")
	b.ReportMetric(float64(res.Stats.Messages), "msgs")
	b.ReportMetric(float64(res.Stats.Words), "words")
	if res.Stats.Remaps > 0 {
		b.ReportMetric(float64(res.Stats.Remaps), "remaps")
	}
}

// --- Figure 2 vs Figure 3 ---------------------------------------------------

// BenchmarkFig2CompileTime is the paper's Figure 2: interprocedurally
// compiled code for the Figure 1 program (vectorized boundary
// messages, reduced loop bounds).
func BenchmarkFig2CompileTime(b *testing.B) {
	p := mustCompile(b, Fig1Src(400, 4), DefaultOptions())
	init := map[string][]float64{"X": Ramp(400)}
	var res *Result
	for i := 0; i < b.N; i++ {
		res = runOnce(b, p, init)
	}
	report(b, res)
}

// BenchmarkFig3RuntimeResolution is the Figure 3 baseline: per-element
// ownership tests and element messages.
func BenchmarkFig3RuntimeResolution(b *testing.B) {
	opts := DefaultOptions()
	opts.Strategy = RuntimeResolution
	p := mustCompile(b, Fig1Src(400, 4), opts)
	init := map[string][]float64{"X": Ramp(400)}
	var res *Result
	for i := 0; i < b.N; i++ {
		res = runOnce(b, p, init)
	}
	report(b, res)
}

// --- Figure 10 vs Figure 12 -------------------------------------------------

// BenchmarkFig10Delayed is Figure 10: cloning plus delayed
// instantiation vectorizes the boundary exchange out of the caller's
// loop — one message per boundary for the whole program.
func BenchmarkFig10Delayed(b *testing.B) {
	p := mustCompile(b, Fig4Src(100, 4), DefaultOptions())
	init := map[string][]float64{"X": Ramp(100 * 100), "Y": Ramp(100 * 100)}
	var res *Result
	for i := 0; i < b.N; i++ {
		res = runOnce(b, p, init)
	}
	report(b, res)
}

// BenchmarkFig12Immediate is Figure 12: immediate instantiation sends
// one message per procedure invocation (100x more).
func BenchmarkFig12Immediate(b *testing.B) {
	opts := DefaultOptions()
	opts.Strategy = Immediate
	p := mustCompile(b, Fig4Src(100, 4), opts)
	init := map[string][]float64{"X": Ramp(100 * 100), "Y": Ramp(100 * 100)}
	var res *Result
	for i := 0; i < b.N; i++ {
		res = runOnce(b, p, init)
	}
	report(b, res)
}

// --- Figure 16 ladder --------------------------------------------------------

// BenchmarkFig16Remap runs the dynamic-decomposition program at each
// optimization level; the remaps metric reproduces the 4T/2T/2/1
// ladder (T=25).
func BenchmarkFig16Remap(b *testing.B) {
	levels := []struct {
		name  string
		level RemapLevel
	}{
		{"none", RemapNone},
		{"live", RemapLive},
		{"hoist", RemapHoist},
		{"kills", RemapKills},
	}
	for _, l := range levels {
		b.Run(l.name, func(b *testing.B) {
			opts := DefaultOptions()
			opts.RemapOpt = l.level
			p := mustCompile(b, Fig15Src(25, 4), opts)
			init := map[string][]float64{"X": Ramp(100)}
			var res *Result
			for i := 0; i < b.N; i++ {
				res = runOnce(b, p, init)
			}
			report(b, res)
		})
	}
}

// --- §9 dgefa ----------------------------------------------------------------

// BenchmarkDgefaStrategies is the §9 strategy comparison.
func BenchmarkDgefaStrategies(b *testing.B) {
	const n = 64
	variants := []struct {
		name string
		s    Strategy
	}{
		{"interproc", Interprocedural},
		{"immediate", Immediate},
		{"runtime", RuntimeResolution},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			opts := DefaultOptions()
			opts.P = 4
			opts.Strategy = v.s
			p := mustCompile(b, DgefaSrc(n, 4), opts)
			init := map[string][]float64{"a": DgefaMatrix(n)}
			var res *Result
			for i := 0; i < b.N; i++ {
				res = runOnce(b, p, init)
			}
			report(b, res)
		})
	}
}

// BenchmarkDgefaScaling is the §9 processor sweep.
func BenchmarkDgefaScaling(b *testing.B) {
	const n = 96
	for _, procs := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("P%d", procs), func(b *testing.B) {
			opts := DefaultOptions()
			opts.P = procs
			p := mustCompile(b, DgefaSrc(n, procs), opts)
			init := map[string][]float64{"a": DgefaMatrix(n)}
			var res *Result
			for i := 0; i < b.N; i++ {
				res = runOnce(b, p, init)
			}
			report(b, res)
		})
	}
}

// --- Stencils ------------------------------------------------------------------

// BenchmarkJacobi2D sweeps processors on the 2-D five-point stencil.
func BenchmarkJacobi2D(b *testing.B) {
	const n, steps = 64, 10
	grid := make([]float64, n*n)
	for j := 0; j < n; j++ {
		grid[j] = 100
		grid[(n-1)*n+j] = 100
	}
	for _, procs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("P%d", procs), func(b *testing.B) {
			opts := DefaultOptions()
			opts.P = procs
			p := mustCompile(b, Jacobi2DSrc(n, steps, procs), opts)
			init := map[string][]float64{"a": grid}
			var res *Result
			for i := 0; i < b.N; i++ {
				res = runOnce(b, p, init)
			}
			report(b, res)
		})
	}
}

// --- Ablations (DESIGN.md design choices) -----------------------------------

// BenchmarkAblationCloning contrasts cloning with the fallback the
// compiler takes when cloning is disabled (CloneLimit=0) on the
// Figure 4 program: with multiple decompositions reaching F1/F2 and no
// clones, the procedures execute replicated — every processor does all
// the work (zero messages, ~P× the simulated time).
func BenchmarkAblationCloning(b *testing.B) {
	configs := []struct {
		name  string
		limit int
	}{
		{"cloning", 64},
		{"noCloning", 0},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			opts := DefaultOptions()
			opts.CloneLimit = cfg.limit
			p := mustCompile(b, Fig4Src(100, 4), opts)
			init := map[string][]float64{"X": Ramp(100 * 100), "Y": Ramp(100 * 100)}
			var res *Result
			for i := 0; i < b.N; i++ {
				res = runOnce(b, p, init)
			}
			report(b, res)
		})
	}
}

// --- Compiler speed ------------------------------------------------------------

// BenchmarkCompileDgefa measures the compiler itself (parse through
// code generation) on the dgefa program.
func BenchmarkCompileDgefa(b *testing.B) {
	src := DgefaSrc(128, 8)
	opts := DefaultOptions()
	opts.P = 8
	for i := 0; i < b.N; i++ {
		if _, err := Compile(src, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileFig4 measures compilation of the cloning-heavy
// Figure 4 program.
func BenchmarkCompileFig4(b *testing.B) {
	src := Fig4Src(100, 4)
	opts := DefaultOptions()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(src, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §6 dynamic distribution (ADI phases) -------------------------------------

// BenchmarkADI contrasts static distribution (pipelined boundary
// exchange in the column phase) with dynamic redistribution between
// phases.
func BenchmarkADI(b *testing.B) {
	const n, steps = 32, 2
	for _, dynamic := range []bool{false, true} {
		name := "static"
		if dynamic {
			name = "dynamic"
		}
		b.Run(name, func(b *testing.B) {
			p := mustCompile(b, ADISrc(n, steps, 4, dynamic), DefaultOptions())
			init := map[string][]float64{"a": Ramp(n * n)}
			var res *Result
			for i := 0; i < b.N; i++ {
				res = runOnce(b, p, init)
			}
			report(b, res)
		})
	}
}

// --- Reductions ----------------------------------------------------------------

// BenchmarkReduction measures a recognized global sum against the
// prefix-sum fallback on the same data.
func BenchmarkReduction(b *testing.B) {
	srcFor := func(reduction bool) string {
		body := `        s = s + X(i)`
		if !reduction {
			body = `        s = s + X(i)
        X(i) = s`
		}
		return `
      PROGRAM P
      PARAMETER (n$proc = 4)
      REAL X(200)
      DISTRIBUTE X(BLOCK)
      s = 0.0
      do i = 1,200
` + body + `
      enddo
      END
`
	}
	for _, recognized := range []bool{true, false} {
		name := "recognized"
		if !recognized {
			name = "fallback"
		}
		b.Run(name, func(b *testing.B) {
			p := mustCompile(b, srcFor(recognized), DefaultOptions())
			init := map[string][]float64{"X": Ramp(200)}
			var res *Result
			for i := 0; i < b.N; i++ {
				res = runOnce(b, p, init)
			}
			report(b, res)
		})
	}
}

// --- Tracing -------------------------------------------------------------------

// BenchmarkTraceOverhead measures the run-time cost of the tracing
// subsystem: "disabled" is the nil-sink fast path every untraced run
// takes (the acceptance bar is <5% regression against a build without
// instrumentation), "enabled" collects and discards a full event
// stream.
func BenchmarkTraceOverhead(b *testing.B) {
	src := Jacobi2DSrc(32, 5, 4)
	init := map[string][]float64{"a": Ramp(32 * 32)}
	p := mustCompile(b, src, DefaultOptions())

	b.Run("disabled", func(b *testing.B) {
		r := NewRunner(WithInit(init)) // no WithTrace: nil sink
		for i := 0; i < b.N; i++ {
			if _, err := r.Run(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := NewTrace()
			if _, err := NewRunner(WithInit(init), WithTrace(tr)).Run(p); err != nil {
				b.Fatal(err)
			}
			if len(tr.Events()) == 0 {
				b.Fatal("no events collected")
			}
		}
	})
}

// dgefaP1024Events runs the paper's §9 case study (n=128) on 1024
// processors traced and returns the events in the order the machine
// appended them: 520 708 of them, the trace behind bench/'s
// dgefa_p1024 profile.distill_s.
func dgefaP1024Events(tb testing.TB) []trace.Event {
	tb.Helper()
	prog, err := Compile(DgefaSrc(128, 1024), DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	tr := NewTrace()
	if _, err := NewRunner(WithInit(map[string][]float64{"a": DgefaMatrix(128)}), WithTrace(tr)).Run(prog); err != nil {
		tb.Fatal(err)
	}
	return tr.Events()
}

// BenchmarkDistill measures the run distillation a profiled run pays
// on top of the run: one traced dgefa_p1024 event stream to the profile
// artifact. Each iteration distills a fresh copy in append order (the
// distillation sorts in place), copied off the clock.
func BenchmarkDistill(b *testing.B) {
	events := dgefaP1024Events(b)
	work := make([]trace.Event, len(events))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(work, events)
		b.StartTimer()
		if profile.FromEvents(work, profile.Meta{Workload: "dgefa_p1024", P: 1024}) == nil {
			b.Fatal("no profile")
		}
	}
	b.ReportMetric(float64(len(events)), "events")
}

// TestDistillAllocBudget fails when distilling that trace allocates more
// than the budget. Before PR 16 the three nested summaries allocated
// 503.6 MB here — two sorted copies of the events, three P×P matrices
// and a timeline nobody on the profile path read — and nothing would
// have noticed them coming back. The budget is the bytes measured when
// it was last set plus 20 %; lower it when a change lowers them.
func TestDistillAllocBudget(t *testing.T) {
	const budget = 32_400_000 // 27 008 440 measured at PR 16 + 20 %
	events := dgefaP1024Events(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pf := profile.FromEvents(events, profile.Meta{Workload: "dgefa_p1024", P: 1024})
	runtime.ReadMemStats(&after)
	if pf == nil {
		t.Fatal("no profile")
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d events distilled in %d bytes (budget %d)", len(events), got, budget)
	if got > budget {
		t.Errorf("distillation allocates %d bytes, budget %d", got, budget)
	}
}

// --- Optimization remarks -------------------------------------------------------

// BenchmarkExplainOverhead measures the compile-time cost of the remark
// engine: "disabled" is the nil-collector fast path every unexplained
// compile takes (static Why strings are pointer stores, so the bar is
// zero extra allocations — guarded by ReportAllocs against the enabled
// variant), "enabled" collects and discards a full remark stream.
func BenchmarkExplainOverhead(b *testing.B) {
	src := DgefaSrc(64, 4)
	opts := DefaultOptions()

	b.Run("disabled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Compile(src, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o := opts
			o.Explain = NewExplain()
			if _, err := Compile(src, o); err != nil {
				b.Fatal(err)
			}
			if len(o.Explain.Remarks()) == 0 {
				b.Fatal("no remarks collected")
			}
		}
	})
}
