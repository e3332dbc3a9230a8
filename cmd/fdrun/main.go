// Command fdrun compiles a Fortran D source file and executes the
// generated SPMD program on the simulated MIMD machine, printing the
// run's statistics and (optionally) the resulting arrays. Arrays are
// seeded with a deterministic ramp unless -zero is given.
//
// Usage:
//
//	fdrun [-p N] [-jobs N] [-strategy interproc|runtime|immediate] [-zero] [-print-arrays]
//	      [-trace out.json] [-trace-text] [-trace-json out.jsonl] [-profile out.json]
//	      [-explain] [-explain-json out.jsonl] [-report out.html] [-sweep "1,2,4,8"]
//	      [-spmd] [-deadline 30s]
//	      [-fault-seed N] [-fault-delay P] [-fault-delay-max US] [-fault-dup P]
//	      [-fault-straggler "pid:skew,..."] file.f
//
// -trace writes Chrome trace_event JSON covering the compile phases and
// every message of the run (load in chrome://tracing or Perfetto);
// -trace-text prints the human-readable summary — including the
// per-processor run profile — to stderr; -trace-json writes the raw
// event stream as sorted JSON lines. -explain prints the compiler's
// optimization report to stderr; -explain-json writes the remarks as
// JSON lines to a file. -report renders the full self-contained HTML
// performance report (communication heatmap, hotspots, timeline,
// remarks, and a -sweep processor-scaling curve); it implies tracing
// and remark collection.
//
// -profile traces the run and writes its profile artifact — the
// stable, versioned per-site cost summary internal/profile defines —
// as canonical JSON. Equal seeded runs write byte-identical artifacts,
// so two -profile outputs diff cleanly; inspect, merge and compare
// them with fdprof.
//
// -spmd runs the input as a hand-written SPMD node program directly on
// the simulated machine, skipping compilation and the sequential
// check. -deadline bounds the wall-clock time of the run, and of each
// of -report's runs: a run that would hang (mismatched sends/receives,
// a true deadlock) instead exits non-zero with the machine's
// per-processor deadlock report. The
// -fault-* flags build a seeded, deterministic fault-injection plan
// (delivery delays, duplicated messages, straggler processors); the
// same seed reproduces the same faults and the same trace exports.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"fortd"
	"fortd/internal/profile"
	"fortd/internal/trace/analyze"
)

// parseStragglers parses "pid:skew,pid:skew" into a straggler map.
func parseStragglers(s string) (map[int]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := map[int]float64{}
	for _, part := range strings.Split(s, ",") {
		pidStr, skewStr, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("bad straggler %q, want pid:skew", part)
		}
		pid, err := strconv.Atoi(pidStr)
		if err != nil {
			return nil, fmt.Errorf("bad straggler pid %q: %v", pidStr, err)
		}
		skew, err := strconv.ParseFloat(skewStr, 64)
		if err != nil {
			return nil, fmt.Errorf("bad straggler skew %q: %v", skewStr, err)
		}
		out[pid] = skew
	}
	return out, nil
}

// parseSweep parses a "1,2,4,8"-style processor list. An empty string
// returns nil (no sweep).
func parseSweep(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var ps []int
	seen := map[int]bool{}
	for _, f := range strings.Split(s, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || p < 1 {
			return nil, fmt.Errorf("bad processor count %q in sweep", f)
		}
		if !seen[p] {
			seen[p] = true
			ps = append(ps, p)
		}
	}
	sort.Ints(ps)
	return ps, nil
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

func main() {
	p := flag.Int("p", 0, "processor count (0: use the program's n$proc)")
	jobs := flag.Int("jobs", 1, "concurrent code-generation workers (output is identical for any value)")
	strategy := flag.String("strategy", "interproc", "interproc | runtime | immediate")
	zero := flag.Bool("zero", false, "zero-initialize arrays instead of a ramp")
	printArrays := flag.Bool("print-arrays", false, "print final array contents")
	check := flag.Bool("check", true, "compare against the sequential reference")
	traceOut := flag.String("trace", "", "write Chrome trace_event JSON to this file")
	traceText := flag.Bool("trace-text", false, "print a trace summary to stderr")
	traceJSON := flag.String("trace-json", "", "write the sorted trace event stream as JSON lines to this file")
	profileOut := flag.String("profile", "", "write the run's profile artifact (canonical JSON, see fdprof) to this file")
	explainText := flag.Bool("explain", false, "print the optimization report to stderr")
	explainJSON := flag.String("explain-json", "", "write optimization remarks as JSON lines to this file")
	reportOut := flag.String("report", "", "write the self-contained HTML performance report to this file")
	sweepFlag := flag.String("sweep", "1,2,4,8", "processor counts for the report's scaling sweep (empty: skip)")
	overlap := flag.Bool("overlap", true, "overlap communication with computation (post halo receives early, sink waits past interior iterations)")
	spmdMode := flag.Bool("spmd", false, "run the input as a hand-written SPMD node program (no compilation, no reference check)")
	deadline := flag.Duration("deadline", 0, "wall-clock deadline for the simulated run (0: none)")
	faultSeed := flag.Int64("fault-seed", 0, "seed for the deterministic fault-injection plan")
	faultDelay := flag.Float64("fault-delay", 0, "per-message probability of an injected delivery delay")
	faultDelayMax := flag.Float64("fault-delay-max", 200, "maximum injected delay in virtual µs")
	faultDup := flag.Float64("fault-dup", 0, "per-message probability of a duplicated delivery")
	faultStraggler := flag.String("fault-straggler", "", "straggler processors as pid:skew,... (skew multiplies flop cost)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: fdrun [flags] file.f")
		os.Exit(2)
	}
	srcBytes, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "fdrun:", err)
		os.Exit(1)
	}
	src := string(srcBytes)

	var tr *fortd.Trace
	if *traceOut != "" || *traceText || *traceJSON != "" || *profileOut != "" {
		tr = fortd.NewTrace()
	}
	var ex *fortd.Explain
	if *explainText || *explainJSON != "" {
		ex = fortd.NewExplain()
	}

	stragglers, err := parseStragglers(*faultStraggler)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fdrun:", err)
		os.Exit(2)
	}
	var faults *fortd.FaultPlan
	if *faultDelay > 0 || *faultDup > 0 || len(stragglers) > 0 {
		faults = &fortd.FaultPlan{
			Seed:       *faultSeed,
			DelayProb:  *faultDelay,
			DelayMax:   *faultDelayMax,
			DupProb:    *faultDup,
			Stragglers: stragglers,
		}
	}

	var prog *fortd.Program
	opts := fortd.DefaultOptions()
	if !*spmdMode {
		opts.P = *p
		opts.Jobs = *jobs
		opts.Trace = tr
		opts.Explain = ex
		opts.Overlap = *overlap
		if opts.Strategy, err = fortd.ParseStrategy(*strategy); err != nil {
			fmt.Fprintln(os.Stderr, "fdrun:", err)
			os.Exit(2)
		}
		prog, err = fortd.Compile(src, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fdrun:", err)
			os.Exit(1)
		}
	}

	init := map[string][]float64{}
	if !*zero {
		init = fortd.RampInit(src)
	}

	runner := fortd.NewRunner(
		fortd.WithInit(init), fortd.WithTrace(tr),
		fortd.WithDeadline(*deadline), fortd.WithFaults(faults),
	)
	var res *fortd.Result
	if *spmdMode {
		res, err = runner.RunSPMD(src, *p)
	} else {
		res, err = runner.Run(prog)
	}
	if err != nil {
		// a *DeadlockError renders the full per-processor report
		fmt.Fprintln(os.Stderr, "fdrun:", err)
		os.Exit(1)
	}
	if *spmdMode {
		fmt.Printf("spmd run\n")
	} else {
		fmt.Printf("P=%d strategy=%s\n", prog.P(), *strategy)
	}
	fmt.Printf("stats: %s\n", res.Stats)

	if *profileOut != "" {
		runP := *p
		if prog != nil {
			runP = prog.P()
		}
		var seed int64
		if faults != nil {
			seed = faults.Seed
		}
		pf := profile.FromEvents(tr.Events(), profile.Meta{
			ProgramHash: fortd.ProgramID(src, opts),
			Workload:    filepath.Base(flag.Arg(0)),
			P:           runP,
			Backend:     "des",
			FaultSeed:   seed,
		})
		if pf == nil {
			fmt.Fprintln(os.Stderr, "fdrun: profile: trace carried no machine activity")
			os.Exit(1)
		}
		id, err := profile.WriteFile(*profileOut, pf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fdrun: profile:", err)
			os.Exit(1)
		}
		fmt.Printf("profile: wrote %s (id %.12s, blocked-share %.3f)\n", *profileOut, id, pf.BlockedShare())
	}
	if *traceOut != "" {
		if err := writeFile(*traceOut, tr.WriteChrome); err != nil {
			fmt.Fprintln(os.Stderr, "fdrun: trace:", err)
			os.Exit(1)
		}
		fmt.Printf("trace: wrote %s\n", *traceOut)
	}
	if *traceText {
		tr.WriteText(os.Stderr)
	}
	if *traceJSON != "" {
		if err := writeFile(*traceJSON, tr.WriteJSONL); err != nil {
			fmt.Fprintln(os.Stderr, "fdrun: trace-json:", err)
			os.Exit(1)
		}
		fmt.Printf("trace: wrote %s\n", *traceJSON)
	}
	if *explainText {
		ex.WriteText(os.Stderr)
	}
	if *explainJSON != "" {
		if err := writeFile(*explainJSON, ex.WriteJSON); err != nil {
			fmt.Fprintln(os.Stderr, "fdrun: explain:", err)
			os.Exit(1)
		}
	}

	if *reportOut != "" && !*spmdMode {
		// The report runs its own traced compile+execution (plus the
		// sweep), so it works whether or not -trace was given.
		sweep, err := parseSweep(*sweepFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fdrun:", err)
			os.Exit(2)
		}
		sec, err := fortd.PageSection(context.Background(), flag.Arg(0), src, init, opts, sweep, *deadline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fdrun: report:", err)
			os.Exit(1)
		}
		page := &analyze.Page{Title: flag.Arg(0), Subtitle: fmt.Sprintf("strategy=%s", *strategy), Sections: []*analyze.Section{sec}}
		if err := writeFile(*reportOut, func(w io.Writer) error { return analyze.WriteHTML(w, page) }); err != nil {
			fmt.Fprintln(os.Stderr, "fdrun: report:", err)
			os.Exit(1)
		}
		fmt.Printf("report: wrote %s\n", *reportOut)
	}

	if *check && !*spmdMode {
		ref, err := fortd.NewRunner(fortd.WithInit(init)).RunReference(prog)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fdrun: reference:", err)
			os.Exit(1)
		}
		ok := true
		for name, want := range ref.Arrays {
			got := res.Arrays[name]
			for i := range want {
				// a NaN where the reference is finite is a mismatch too
				if d := math.Abs(got[i] - want[i]); !(d <= 1e-9) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
					fmt.Printf("MISMATCH %s[%d]: %v != %v\n", name, i, got[i], want[i])
					ok = false
					break
				}
			}
		}
		fmt.Printf("matches sequential reference: %v\n", ok)
		if !ok {
			os.Exit(1)
		}
	}

	if *printArrays {
		names := make([]string, 0, len(res.Arrays))
		for name := range res.Arrays {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			vals := res.Arrays[name]
			if len(vals) > 16 {
				fmt.Printf("%s(1:16) = %v ...\n", name, vals[:16])
			} else {
				fmt.Printf("%s = %v\n", name, vals)
			}
		}
	}
}
