// Command fdbench runs the repository's standard compile+simulate
// benchmark workloads — the 2-D Jacobi stencil, the §9 dgefa case
// study, and the Figure 15 dynamic-distribution program — and writes
// one JSON snapshot per invocation, named BENCH_<yyyymmdd>.json, with
// the wall-clock time and the simulated run's message and word counts
// for each workload. Successive snapshots committed to the repository
// give a coarse performance history of both the compiler and the
// generated code.
//
// Each entry also records the code-generation worker count (-jobs) the
// compiles used, the warm-recompile hit rate of the summary cache
// (compile twice against one cache; the second compile's hit fraction),
// and — from one traced run distilled through internal/profile — the
// run's machine-wide blocked share and busy-time imbalance ratio, the
// pinned baseline for the planned communication-overlap pass.
// Results are sorted by workload name and serialized from a fixed
// struct, so snapshot key order is stable across runs and Go versions.
//
// -against compares the fresh results to an old snapshot, printing the
// per-workload deltas of wall time, communication volume and cache hit
// rate, and exits non-zero when any metric is worse than the old value
// by more than -threshold (relative; wall time is noisy across
// machines, so ci.sh treats that exit as a warning, not a failure).
// -report additionally renders each workload's traced run into one
// self-contained HTML performance report, with the comparison table
// appended when -against was given.
//
// Beyond the three paper-scale workloads (P=4), the suite carries
// scaled variants at P=256 and P=1024 — the 1-D Jacobi stencil, dgefa,
// and the Figure 15 redistribution pattern — that exercise the
// discrete-event machine at sizes the paper's testbed could not reach.
// -only restricts the run to a comma-separated list of workload names
// (CI uses it for a cheap P=256 smoke).
//
// Usage:
//
//	fdbench [-o file.json] [-runs N] [-jobs N]
//	        [-only jacobi,dgefa] [-against BENCH_old.json]
//	        [-threshold 0.10] [-report out.html]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"fortd"
	"fortd/internal/benchcmp"
	"fortd/internal/profile"
	"fortd/internal/report"
	"fortd/internal/trace/analyze"
)

type workload struct {
	name string
	src  string
	init func() map[string][]float64
	// p marks a scaled workload (the processor count it targets; 0 for
	// the paper-scale set). Scaled workloads are excluded from the
	// HTML report.
	p int
}

func workloads() []workload {
	return []workload{
		{
			name: "jacobi",
			src:  fortd.Jacobi2DSrc(64, 10, 4),
			init: func() map[string][]float64 {
				const n = 64
				grid := make([]float64, n*n)
				for j := 0; j < n; j++ {
					grid[j] = 100
					grid[(n-1)*n+j] = 100
				}
				return map[string][]float64{"a": grid}
			},
		},
		{
			name: "dgefa",
			src:  fortd.DgefaSrc(64, 4),
			init: func() map[string][]float64 {
				return map[string][]float64{"a": fortd.DgefaMatrix(64)}
			},
		},
		{
			name: "dyndist",
			src:  fortd.Fig15Src(25, 4),
			init: func() map[string][]float64 {
				return map[string][]float64{"X": fortd.Ramp(100)}
			},
		},
		// scaled variants. The Jacobi entries use the 1-D stencil so
		// per-processor array copies stay O(n) rather than O(n²) at
		// P=1024.
		{
			name: "jacobi_p256",
			src:  fortd.Jacobi1DSrc(8192, 5, 256),
			init: func() map[string][]float64 {
				return map[string][]float64{"a": fortd.Ramp(8192)}
			},
			p: 256,
		},
		{
			name: "dgefa_p256",
			src:  fortd.DgefaSrc(128, 256),
			init: func() map[string][]float64 {
				return map[string][]float64{"a": fortd.DgefaMatrix(128)}
			},
			p: 256,
		},
		{
			name: "dyndist_p256",
			src:  fortd.Fig15ScaledSrc(4096, 3, 256),
			init: func() map[string][]float64 {
				return map[string][]float64{"X": fortd.Ramp(4096)}
			},
			p: 256,
		},
		{
			name: "jacobi_p1024",
			src:  fortd.Jacobi1DSrc(8192, 5, 1024),
			init: func() map[string][]float64 {
				return map[string][]float64{"a": fortd.Ramp(8192)}
			},
			p: 1024,
		},
		{
			name: "dgefa_p1024",
			src:  fortd.DgefaSrc(128, 1024),
			init: func() map[string][]float64 {
				return map[string][]float64{"a": fortd.DgefaMatrix(128)}
			},
			p: 1024,
		},
	}
}

func measure(w workload, runs, jobs int, overlap bool) benchcmp.Result {
	best := benchcmp.Result{Name: w.name, Jobs: jobs}
	opts := fortd.DefaultOptions().WithOverlap(overlap)
	opts.Jobs = jobs
	for i := 0; i < runs; i++ {
		init := w.init()
		start := time.Now()
		prog, err := fortd.Compile(w.src, opts)
		if err != nil {
			log.Fatalf("%s: %v", w.name, err)
		}
		res, err := fortd.NewRunner(fortd.WithInit(init)).Run(prog)
		if err != nil {
			log.Fatalf("%s: %v", w.name, err)
		}
		wall := time.Since(start).Nanoseconds()
		if best.WallNs == 0 || wall < best.WallNs {
			best.WallNs = wall
		}
		best.Words = res.Stats.Words
		best.Msgs = res.Stats.Messages
	}
	// blocked share + imbalance: one traced run (outside the timing
	// loop) distilled through the profile artifact, so the snapshot
	// figure is byte-for-byte the definition fdprof and the daemon use
	prog, err := fortd.Compile(w.src, opts)
	if err != nil {
		log.Fatalf("%s: %v", w.name, err)
	}
	tr := fortd.NewTrace()
	if _, err := fortd.NewRunner(fortd.WithInit(w.init()), fortd.WithTrace(tr)).Run(prog); err != nil {
		log.Fatalf("%s: %v", w.name, err)
	}
	if pf := profile.FromEvents(tr.Events(), profile.Meta{}); pf != nil {
		best.BlockedShare = pf.BlockedShare()
		best.Imbalance = pf.Imbalance()
	}

	// warm-recompile hit rate: compile twice against one cache and
	// report the second compile's hit fraction
	cacheOpts := opts
	cacheOpts.Cache = fortd.NewSummaryCache()
	if _, err := fortd.Compile(w.src, cacheOpts); err != nil {
		log.Fatalf("%s: %v", w.name, err)
	}
	warm, err := fortd.Compile(w.src, cacheOpts)
	if err != nil {
		log.Fatalf("%s: %v", w.name, err)
	}
	hits, misses := len(warm.CacheHits()), len(warm.CacheMisses())
	if hits+misses > 0 {
		best.CacheHitRate = float64(hits) / float64(hits+misses)
	}
	return best
}

// compareAgainst loads the old snapshot, prints the delta table to w,
// and returns the comparison. It is the testable core of -against.
func compareAgainst(w io.Writer, oldPath string, results []benchcmp.Result, threshold float64) (*benchcmp.Comparison, error) {
	old, err := benchcmp.Load(oldPath)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "comparing against %s (threshold %.0f%%)\n", oldPath, 100*threshold)
	c := benchcmp.Compare(old, results, threshold)
	if err := c.WriteText(w); err != nil {
		return nil, err
	}
	return c, nil
}

// writeReport renders each workload's traced run plus the optional
// comparison table into one self-contained HTML file.
func writeReport(path string, cmp *benchcmp.Comparison, jobs int) error {
	var secs []*analyze.Section
	for _, w := range workloads() {
		if w.p > 0 {
			continue // scaled runs would bloat the HTML with 10⁵+ events
		}
		opts := fortd.DefaultOptions()
		opts.Jobs = jobs
		sec, err := report.BuildSection(w.name, w.src, w.init(), opts, nil)
		if err != nil {
			return err
		}
		secs = append(secs, sec)
	}
	if cmp != nil {
		header, rows := cmp.Table()
		note := "positive delta = value grew; REGRESSED = worse beyond the threshold"
		secs = append(secs, &analyze.Section{
			Name: "benchmark comparison",
			Tables: []analyze.Table{
				{Title: "old vs new snapshot", Header: header, Rows: rows, Note: note},
			},
		})
	}
	return report.WriteFile(path, "fdbench", "standard workloads: jacobi, dgefa, dyndist", secs...)
}

func main() {
	out := flag.String("o", "", "output file (default BENCH_<yyyymmdd>.json)")
	runs := flag.Int("runs", 3, "measurement repetitions per workload (best is kept)")
	jobs := flag.Int("jobs", 1, "concurrent code-generation workers per compile")
	only := flag.String("only", "", "comma-separated workload names to run (empty: all)")
	against := flag.String("against", "", "old snapshot to compare against; exit non-zero on regression")
	threshold := flag.Float64("threshold", 0.10, "relative regression threshold for -against (0.10 = 10%)")
	reportOut := flag.String("report", "", "write the self-contained HTML performance report to this file")
	overlap := flag.Bool("overlap", true, "compile with the communication-overlap schedule (-overlap=false pins the blocking baseline)")
	flag.Parse()

	selected := map[string]bool{}
	for _, name := range strings.Split(*only, ",") {
		if name = strings.TrimSpace(name); name != "" {
			selected[name] = true
		}
	}

	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", time.Now().Format("20060102"))
	}
	var results []benchcmp.Result
	for _, w := range workloads() {
		if len(selected) > 0 && !selected[w.name] {
			continue
		}
		r := measure(w, *runs, *jobs, *overlap)
		fmt.Printf("%-12s wall=%-12s words=%-8d msgs=%-6d cache-hit-rate=%.2f blocked-share=%.3f imbalance=%.3f\n",
			r.Name, time.Duration(r.WallNs), r.Words, r.Msgs, r.CacheHitRate, r.BlockedShare, r.Imbalance)
		results = append(results, r)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Name < results[j].Name })
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", path)

	var cmp *benchcmp.Comparison
	if *against != "" {
		cmp, err = compareAgainst(os.Stdout, *against, results, *threshold)
		if err != nil {
			log.Fatal(err)
		}
	}
	if *reportOut != "" {
		if err := writeReport(*reportOut, cmp, *jobs); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("report: wrote %s\n", *reportOut)
	}
	if cmp != nil && len(cmp.Regressions()) > 0 {
		os.Exit(1)
	}
}
