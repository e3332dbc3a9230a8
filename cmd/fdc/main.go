// Command fdc is the Fortran D compiler front end: it reads a Fortran D
// source file, compiles it for a MIMD distributed-memory machine, and
// prints the generated SPMD node program plus a compilation report.
//
// Usage:
//
//	fdc [-p N] [-jobs N] [-strategy interproc|runtime|immediate] [-remap none|live|hoist|kills]
//	    [-explain] [-explain-json out.jsonl] [-trace out.json] [-trace-text]
//	    [-deadline 30s] file.f
//
// -explain prints the optimization report (every pass's applied/missed
// decisions with their reasons) to stderr; -explain-json writes the
// same remarks as JSON lines to a file. -trace writes Chrome
// trace_event JSON of the compile phases (where does compile time go);
// -trace-text prints the same phases as a text summary to stderr.
// -deadline bounds the compilation's wall-clock time, so a pathological
// input fails loudly instead of hanging the build.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"fortd"
)

// compileWithDeadline runs Compile bounded by d (0: unbounded) via
// Options.Deadline, which cancels the compilation pipeline itself —
// phase boundaries and the phase-3 workers observe the expiry and the
// call returns context.DeadlineExceeded.
func compileWithDeadline(src string, opts fortd.Options, d time.Duration) (*fortd.Program, error) {
	opts.Deadline = d
	return fortd.Compile(src, opts)
}

func main() {
	p := flag.Int("p", 0, "processor count (0: use the program's n$proc)")
	jobs := flag.Int("jobs", 1, "concurrent code-generation workers (output is identical for any value)")
	strategy := flag.String("strategy", "interproc", "interproc | runtime | immediate")
	remap := flag.String("remap", "kills", "none | live | hoist | kills")
	report := flag.Bool("report", true, "print the compilation report")
	explainText := flag.Bool("explain", false, "print the optimization report to stderr")
	explainJSON := flag.String("explain-json", "", "write optimization remarks as JSON lines to this file")
	traceOut := flag.String("trace", "", "write Chrome trace_event JSON of the compile phases to this file")
	traceText := flag.Bool("trace-text", false, "print a compile-phase trace summary to stderr")
	deadline := flag.Duration("deadline", 0, "wall-clock deadline for the compilation (0: none)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: fdc [flags] file.f")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "fdc:", err)
		os.Exit(1)
	}

	var ex *fortd.Explain
	if *explainText || *explainJSON != "" {
		ex = fortd.NewExplain()
	}
	var tr *fortd.Trace
	if *traceOut != "" || *traceText {
		tr = fortd.NewTrace()
	}

	opts := fortd.DefaultOptions()
	opts.P = *p
	opts.Jobs = *jobs
	opts.Explain = ex
	opts.Trace = tr
	if opts.Strategy, err = fortd.ParseStrategy(*strategy); err != nil {
		fmt.Fprintf(os.Stderr, "fdc: unknown strategy %q\n", *strategy)
		os.Exit(2)
	}
	if opts.RemapOpt, err = fortd.ParseRemapLevel(*remap); err != nil {
		fmt.Fprintln(os.Stderr, "fdc:", err)
		os.Exit(2)
	}

	prog, err := compileWithDeadline(string(src), opts, *deadline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fdc:", err)
		os.Exit(1)
	}
	fmt.Print(prog.Listing())
	if *report {
		r := prog.Report()
		fmt.Printf("\n! --- compilation report (P=%d, %s) ---\n", prog.P(), *strategy)
		fmt.Printf("! messages inserted:  %d\n", r.Messages)
		fmt.Printf("! guards inserted:    %d\n", r.Guards)
		fmt.Printf("! loop bounds reduced: %d\n", r.LoopsReduced)
		fmt.Printf("! remap calls placed: %d\n", r.Remaps)
		fmt.Printf("! procedures cloned:  %d\n", r.Cloned)
		if len(r.RuntimeProcs) > 0 {
			fmt.Printf("! run-time resolution: %v\n", r.RuntimeProcs)
		}
		clones := prog.Clones()
		names := make([]string, 0, len(clones))
		for clone := range clones {
			names = append(names, clone)
		}
		sort.Strings(names)
		for _, clone := range names {
			fmt.Printf("! clone %s <- %s\n", clone, clones[clone])
		}
	}
	if *explainText {
		ex.WriteText(os.Stderr)
	}
	if *explainJSON != "" {
		if err := writeFile(*explainJSON, ex.WriteJSON); err != nil {
			fmt.Fprintln(os.Stderr, "fdc: explain:", err)
			os.Exit(1)
		}
	}
	if *traceText {
		tr.WriteText(os.Stderr)
	}
	if *traceOut != "" {
		if err := writeFile(*traceOut, tr.WriteChrome); err != nil {
			fmt.Fprintln(os.Stderr, "fdc: trace:", err)
			os.Exit(1)
		}
	}
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
