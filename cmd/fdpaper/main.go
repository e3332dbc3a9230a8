// Command fdpaper regenerates every measurable table and figure of the
// paper's evaluation: the Figure 2-vs-3 compile-time/run-time gap, the
// Figure 10-vs-12 delayed/immediate instantiation gap, the Figure 16
// dynamic-decomposition optimization ladder, Table 1's data-flow
// problem inventory, the §8 recompilation scenarios, and the §9 dgefa
// case study (strategy comparison and processor scaling).
//
// Usage:
//
//	fdpaper              # run everything
//	fdpaper -exp dgefa   # run one experiment:
//	                     #   table1 fig2v3 fig10v12 fig16 overlap
//	                     #   dgefa jacobi adi recompile
//
// -trace out.json collects every compile and run of the selected
// experiments into one Chrome trace_event file; -trace-text prints the
// human-readable summary to stderr instead (or in addition). -explain
// prints every compile's optimization remarks to stderr; -explain-json
// writes them as JSON lines to a file.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"

	"fortd"
	"fortd/internal/trace/analyze"
)

// tracer is shared by every compile and run of the selected
// experiments; nil when tracing is off.
var tracer *fortd.Trace

// explainer is shared by every compile of the selected experiments;
// nil when remark collection is off.
var explainer *fortd.Explain

func main() {
	exp := flag.String("exp", "all", "experiment to run")
	traceOut := flag.String("trace", "", "write Chrome trace_event JSON to this file")
	traceText := flag.Bool("trace-text", false, "print a trace summary to stderr")
	explainText := flag.Bool("explain", false, "print the optimization report to stderr")
	explainJSON := flag.String("explain-json", "", "write optimization remarks as JSON lines to this file")
	flag.Parse()
	if *traceOut != "" || *traceText {
		tracer = fortd.NewTrace()
	}
	if *explainText || *explainJSON != "" {
		explainer = fortd.NewExplain()
	}
	defer flushTrace(*traceOut, *traceText)
	defer flushExplain(*explainJSON, *explainText)

	all := map[string]func(){
		"table1":    table1,
		"fig2v3":    fig2v3,
		"fig10v12":  fig10v12,
		"fig16":     fig16,
		"overlap":   overlapExp,
		"dgefa":     dgefa,
		"jacobi":    jacobi,
		"adi":       adi,
		"recompile": recompileExp,
	}
	order := []string{"table1", "fig2v3", "fig10v12", "fig16", "overlap", "dgefa", "jacobi", "adi", "recompile"}
	if *exp == "all" {
		for _, name := range order {
			all[name]()
		}
		return
	}
	fn, ok := all[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (have %v)\n", *exp, order)
		os.Exit(2)
	}
	fn()
}

func header(title string) {
	fmt.Printf("\n================ %s ================\n\n", title)
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func flushTrace(out string, text bool) {
	if tracer == nil {
		return
	}
	if out != "" {
		if err := writeFile(out, tracer.WriteChrome); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ntrace: wrote %s\n", out)
	}
	if text {
		tracer.WriteText(os.Stderr)
	}
}

func flushExplain(out string, text bool) {
	if explainer == nil {
		return
	}
	if out != "" {
		if err := writeFile(out, explainer.WriteJSON); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nexplain: wrote %s\n", out)
	}
	if text {
		explainer.WriteText(os.Stderr)
	}
}

func compile(src string, opts fortd.Options) *fortd.Program {
	opts.Trace = tracer
	opts.Explain = explainer
	p, err := fortd.Compile(src, opts)
	if err != nil {
		log.Fatal(err)
	}
	return p
}

func run(p *fortd.Program, init map[string][]float64) *fortd.Result {
	r, err := fortd.NewRunner(fortd.WithInit(init), fortd.WithTrace(tracer)).Run(p)
	if err != nil {
		log.Fatal(err)
	}
	// every experiment validates against the sequential reference
	ref, err := fortd.NewRunner(fortd.WithInit(init)).RunReference(p)
	if err != nil {
		log.Fatal(err)
	}
	if name, i, bad := mismatch(r.Arrays, ref.Arrays); bad {
		log.Fatalf("wrong answer: %s[%d] = %v, want %v", name, i, r.Arrays[name][i], ref.Arrays[name][i])
	}
	return r
}

// mismatch finds an element of got more than 1e-6 from the reference
// want; a NaN where the reference is not NaN is a mismatch too.
func mismatch(got, want map[string][]float64) (name string, i int, bad bool) {
	for name, w := range want {
		for i := range w {
			g := got[name][i]
			if d := math.Abs(g - w[i]); !(d <= 1e-6) && !(math.IsNaN(g) && math.IsNaN(w[i])) {
				return name, i, true
			}
		}
	}
	return "", 0, false
}

// table1 prints the interprocedural data-flow problem inventory.
func table1() {
	header("Table 1: Interprocedural Fortran D data-flow problems")
	fmt.Printf("%-30s %-5s %-28s %s\n", "problem", "dir", "phase", "module")
	for _, p := range fortd.Table1() {
		fmt.Printf("%-30s %-5s %-28s %s\n", p.Name, p.Direction, p.Phase, p.Package)
	}
}

// fig2v3 contrasts compile-time generated code (Figure 2) with
// run-time resolution (Figure 3) on the Figure 1 program.
func fig2v3() {
	header("Figures 2 vs 3: compile-time code vs run-time resolution (P=4)")
	fmt.Printf("%8s | %12s %8s | %12s %8s | %9s\n",
		"N", "tCompile(µs)", "msgs", "tRuntime(µs)", "msgs", "slowdown")
	for _, n := range []int{100, 400, 1600, 4000} {
		init := map[string][]float64{"X": fortd.Ramp(n)}
		fast := run(compile(fortd.Fig1Src(n, 4), fortd.DefaultOptions()), init)
		opts := fortd.DefaultOptions()
		opts.Strategy = fortd.RuntimeResolution
		slow := run(compile(fortd.Fig1Src(n, 4), opts), init)
		fmt.Printf("%8d | %12.0f %8d | %12.0f %8d | %8.1fx\n",
			n, fast.Stats.Time, fast.Stats.Messages,
			slow.Stats.Time, slow.Stats.Messages,
			slow.Stats.Time/fast.Stats.Time)
	}
}

// fig10v12 contrasts delayed instantiation (Figure 10) with immediate
// instantiation (Figure 12) on the Figure 4 program.
func fig10v12() {
	header("Figures 10 vs 12: delayed vs immediate instantiation (P=4)")
	fmt.Printf("%8s | %12s %8s | %12s %8s | %10s\n",
		"N", "tDelayed(µs)", "msgs", "tImmed(µs)", "msgs", "msg ratio")
	for _, n := range []int{100, 200, 400} {
		init := map[string][]float64{
			"X": fortd.Ramp(n * n),
			"Y": fortd.Ramp(n * n),
		}
		fast := run(compile(fortd.Fig4Src(n, 4), fortd.DefaultOptions()), init)
		opts := fortd.DefaultOptions()
		opts.Strategy = fortd.Immediate
		slow := run(compile(fortd.Fig4Src(n, 4), opts), init)
		ratio := float64(slow.Stats.Messages) / float64(fast.Stats.Messages)
		fmt.Printf("%8d | %12.0f %8d | %12.0f %8d | %9.0fx\n",
			n, fast.Stats.Time, fast.Stats.Messages,
			slow.Stats.Time, slow.Stats.Messages, ratio)
	}
}

// fig16 runs the dynamic-decomposition optimization ladder.
func fig16() {
	header("Figure 16: dynamic data decomposition optimization ladder (T=25, P=4)")
	const T = 25
	levels := []struct {
		name  string
		level fortd.RemapLevel
	}{
		{"16a none", fortd.RemapNone},
		{"16b live decompositions", fortd.RemapLive},
		{"16c loop-invariant hoist", fortd.RemapHoist},
		{"16d array kills", fortd.RemapKills},
	}
	fmt.Printf("%-26s %10s %12s %12s\n", "level", "remaps", "words", "time(µs)")
	for _, l := range levels {
		opts := fortd.DefaultOptions()
		opts.RemapOpt = l.level
		res := run(compile(fortd.Fig15Src(T, 4), opts), map[string][]float64{"X": fortd.Ramp(100)})
		fmt.Printf("%-26s %10d %12d %12.0f\n", l.name, res.Stats.Remaps, res.Stats.Words, res.Stats.Time)
	}
	fmt.Printf("(paper's counts: 4T=%d, 2T=%d, 2, 1)\n", 4*T, 2*T)
}

// overlapExp reports the Figure 13 overlap regions.
func overlapExp() {
	header("Figure 13: overlap regions (Figure 1 program, P=4, block size 25)")
	p := compile(fortd.Fig1Src(100, 4), fortd.DefaultOptions())
	lo, hi := p.OverlapExtent("F1", "X", 0, 25)
	fmt.Printf("F1: X local extent with overlap = [%d:%d]  (paper: REAL X(30))\n", lo, hi)
	lo, hi = p.OverlapExtent("P1", "X", 0, 25)
	fmt.Printf("P1: X local extent with overlap = [%d:%d]\n", lo, hi)
}

// dgefa runs the §9 case study.
func dgefa() {
	header("§9 dgefa case study: strategy comparison (n=96, P=4)")
	const n = 96
	init := map[string][]float64{"a": fortd.DgefaMatrix(n)}
	variants := []struct {
		name string
		s    fortd.Strategy
	}{
		{"interprocedural", fortd.Interprocedural},
		{"immediate", fortd.Immediate},
		{"runtime-resolution", fortd.RuntimeResolution},
	}
	fmt.Printf("%-20s %12s %10s %12s %9s\n", "strategy", "time(µs)", "messages", "words", "vs hand")
	// the paper's §9 baseline: hand-written SPMD message passing
	hand, err := fortd.NewRunner(fortd.WithInit(init)).RunSPMD(fortd.DgefaHandSrc(n, 4), 4)
	if err != nil {
		log.Fatal(err)
	}
	base := hand.Stats.Time
	fmt.Printf("%-20s %12.0f %10d %12d %8.1fx\n",
		"hand-written", hand.Stats.Time, hand.Stats.Messages, hand.Stats.Words, 1.0)
	for _, v := range variants {
		opts := fortd.DefaultOptions()
		opts.P = 4
		opts.Strategy = v.s
		res := run(compile(fortd.DgefaSrc(n, 4), opts), init)
		fmt.Printf("%-20s %12.0f %10d %12d %8.1fx\n",
			v.name, res.Stats.Time, res.Stats.Messages, res.Stats.Words, res.Stats.Time/base)
	}

	header("§9 dgefa case study: processor scaling (interprocedural)")
	fmt.Printf("%6s |", "n\\P")
	procs := []int{1, 2, 4, 8, 16}
	for _, p := range procs {
		fmt.Printf(" %10d", p)
	}
	fmt.Println()
	for _, size := range []int{64, 96, 128} {
		fmt.Printf("%6d |", size)
		in := map[string][]float64{"a": fortd.DgefaMatrix(size)}
		for _, p := range procs {
			opts := fortd.DefaultOptions()
			opts.P = p
			res := run(compile(fortd.DgefaSrc(size, p), opts), in)
			fmt.Printf(" %9.0fµs", res.Stats.Time)
		}
		fmt.Println()
	}

	header("§9 dgefa case study: speedup and efficiency (n=96, interprocedural)")
	in := map[string][]float64{"a": fortd.DgefaMatrix(n)}
	sweep, err := analyze.RunSweep([]int{1, 2, 4, 8, 16}, func(p int) (analyze.Point, error) {
		opts := fortd.DefaultOptions()
		opts.P = p
		res := run(compile(fortd.DgefaSrc(n, p), opts), in)
		return analyze.Point{Time: res.Stats.Time, Msgs: res.Stats.Messages, Words: res.Stats.Words}, nil
	})
	if err != nil {
		log.Fatal(err)
	}
	sweep.WriteText(os.Stdout)
}

// jacobi reports stencil scaling.
func jacobi() {
	header("2-D Jacobi scaling (64x64, 10 steps)")
	const n, steps = 64, 10
	grid := make([]float64, n*n)
	for j := 0; j < n; j++ {
		grid[j] = 100
		grid[(n-1)*n+j] = 100
	}
	fmt.Printf("%4s %12s %10s %10s\n", "P", "time(µs)", "speedup", "msgs")
	var t1 float64
	for _, p := range []int{1, 2, 4, 8} {
		opts := fortd.DefaultOptions()
		opts.P = p
		res := run(compile(fortd.Jacobi2DSrc(n, steps, p), opts), map[string][]float64{"a": grid})
		if p == 1 {
			t1 = res.Stats.Time
		}
		fmt.Printf("%4d %12.0f %10.2f %10d\n", p, res.Stats.Time, t1/res.Stats.Time, res.Stats.Messages)
	}
}

// adi shows the §6 motivation: phases preferring opposite
// distributions — dynamic redistribution (two remaps per step) beats a
// statically-distributed pipelined boundary exchange.
func adi() {
	header("§6 motivation: ADI-style phases, static vs dynamic distribution (P=4)")
	fmt.Printf("%6s | %12s %8s %8s | %12s %8s %8s | %8s\n",
		"n", "tStatic(µs)", "msgs", "remaps", "tDynamic(µs)", "msgs", "remaps", "speedup")
	for _, n := range []int{32, 48, 64} {
		init := map[string][]float64{"a": fortd.Ramp(n * n)}
		st := run(compile(fortd.ADISrc(n, 2, 4, false), fortd.DefaultOptions()), init)
		dy := run(compile(fortd.ADISrc(n, 2, 4, true), fortd.DefaultOptions()), init)
		fmt.Printf("%6d | %12.0f %8d %8d | %12.0f %8d %8d | %7.1fx\n",
			n, st.Stats.Time, st.Stats.Messages, st.Stats.Remaps,
			dy.Stats.Time, dy.Stats.Messages, dy.Stats.Remaps,
			st.Stats.Time/dy.Stats.Time)
	}
}

// recompileExp demonstrates §8's recompilation analysis: compile the
// base program into a summary cache, then each edit against it.
func recompileExp() {
	header("§8 recompilation analysis")
	base := `
      PROGRAM P
      PARAMETER (n$proc = 4)
      REAL A(100), B(100)
      DISTRIBUTE A(BLOCK)
      DISTRIBUTE B(BLOCK)
      call S1(A)
      call S2(B)
      END
      SUBROUTINE S1(X)
      REAL X(100)
      do i = 1,100
        X(i) = X(i) + 1.0
      enddo
      END
      SUBROUTINE S2(X)
      REAL X(100)
      do i = 1,100
        X(i) = X(i) * 2.0
      enddo
      END
`
	scenarios := []struct {
		name string
		edit func(string) string
	}{
		{"no edit", func(s string) string { return s }},
		{"S2 body edit (interface unchanged)", func(s string) string {
			return replace(s, "X(i) * 2.0", "X(i) * 3.0")
		}},
		{"S2 redistributes X (interface change)", func(s string) string {
			return replace(s, "      SUBROUTINE S2(X)\n      REAL X(100)",
				"      SUBROUTINE S2(X)\n      REAL X(100)\n      DISTRIBUTE X(CYCLIC)")
		}},
		{"caller changes A's distribution", func(s string) string {
			return replace(s, "DISTRIBUTE A(BLOCK)", "DISTRIBUTE A(CYCLIC)")
		}},
	}
	fmt.Printf("%-42s %s\n", "edit", "recompile set")
	for _, sc := range scenarios {
		// what the summary cache re-analyzes after the edit is the
		// recompile set: its key is the §8 test
		opts := fortd.DefaultOptions()
		opts.Cache = fortd.NewSummaryCache()
		compile(base, opts)
		fmt.Printf("%-42s %v\n", sc.name, compile(sc.edit(base), opts).CacheMisses())
	}
}

func replace(s, old, new string) string {
	for i := 0; i+len(old) <= len(s); i++ {
		if s[i:i+len(old)] == old {
			return s[:i] + new + s[i+len(old):]
		}
	}
	log.Fatalf("edit pattern %q not found", old)
	return s
}
