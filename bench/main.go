// Command bench is the repository's benchmark: five seeded workloads,
// two clocks (virtual time of the generated code, host time of our own
// compiler, executor and engine), five gated end-to-end numbers and a
// per-layer split. README.md in this directory documents the metrics,
// the workloads and what each is expected to move; BENCHMARK.json at
// the repository root declares them.
//
// Usage (from the repository root):
//
//	bash bench/run.sh [-workload name] [-seed n] [-seconds s] [-trace 0|1]
//	                  [-smoke] [-o results.json] [-spans spans.json]
//	bash bench/run.sh -compare a.json b.json
//
// With -trace 0 only the untraced samples are taken and the end-to-end
// metrics printed; with -trace 1 only the traced passes run and the
// per-layer metrics are printed; without -trace both happen, untraced
// first. When one workload is selected the last line of standard output
// is one JSON object {"correct","attempted","failed","metrics"}. The
// exit status is non-zero when any operation failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// sampleBatch is how long a sub-millisecond call is repeated before its
// mean counts as one per-layer sample; end-to-end compile samples on
// the run workloads use batches twice as long.
const sampleBatch = 100 * time.Millisecond

// Set-up is repeated when setup_s is reported, since the median of
// several is steadier than one: at least minSetups times, and for a
// set-up of milliseconds until setupFill has passed or maxSetups are
// done.
const (
	minSetups = 5
	maxSetups = 200
	setupFill = 2 * time.Second
)

type metricValue struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Kind  string  `json:"kind"` // end_to_end or per_layer
	Value float64 `json:"value"`
	// Raw is the median as measured, before the drift correction, for a
	// metric reduced from host-time samples (0 otherwise).
	Raw float64 `json:"raw"`
	summary
}

type workloadResult struct {
	Name      string        `json:"name"`
	Attempted int           `json:"attempted"`
	Failed    int           `json:"failed"`
	FailShare float64       `json:"fail_share"`
	Failures  []string      `json:"failures"`
	Metrics   []metricValue `json:"metrics"`
}

// results is the one fixed schema -o writes and -compare reads:
// workloads in declared order, metrics in declared order.
type results struct {
	Schema    int              `json:"schema"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Smoke     bool             `json:"smoke"`
	Workloads []workloadResult `json:"workloads"`
}

type config struct {
	names  []string
	sz     sizes
	seed   int64
	budget time.Duration // measuring time per workload and phase
	// batch is the least host time a sub-millisecond call is repeated
	// for, back to back, before its mean counts as one sample.
	batch time.Duration
	// kernelRuns is how often every round times the reference kernel
	// for the drift correction (calib.go); 0 reports raw seconds.
	kernelRuns int
	endToEnd   bool
	layers     bool
}

// run sets the workloads up, samples them in rounds (one sample of each
// workload per round, so slow host drift and leftover heap hit every
// workload alike) until each has used its budget, then makes the traced
// passes. sp may be nil.
func run(cfg config, sp *spans) (results, error) {
	var ws []*workload
	for _, name := range cfg.names {
		var w *workload
		var times []float64
		begin := time.Now()
		for n := 0; n == 0 || (cfg.endToEnd && (n < minSetups || (n < maxSetups && time.Since(begin) < min(setupFill, cfg.budget)))); n++ {
			start := time.Now()
			var err error
			if w, err = setup(name, cfg); err != nil {
				return results{}, err
			}
			times = append(times, time.Since(start).Seconds())
		}
		// set-up is over before the first round times the kernel, so it is
		// reported as measured
		w.samples["setup_s"] = times
		ws = append(ws, w)
	}

	out := make([]workloadResult, len(ws))
	if cfg.endToEnd {
		for active := ws; len(active) > 0; {
			var next []*workload
			for _, w := range active {
				start := time.Now()
				w.sample()
				if w.spent += time.Since(start); w.spent < cfg.budget {
					next = append(next, w)
				}
			}
			active = next
		}
		for i, w := range ws {
			out[i].Metrics = w.endToEndMetrics()
			w.resetSamples() // per-layer figures come from the traced passes alone
		}
	}
	if cfg.layers {
		for i, w := range ws {
			w.tracedPasses(sp, cfg.budget)
			out[i].Metrics = append(out[i].Metrics, w.layerMetrics()...)
		}
	}
	for i, w := range ws {
		out[i].Name, out[i].Attempted, out[i].Failed, out[i].Failures = w.name, w.attempted, w.failed, w.failures
		out[i].FailShare = float64(w.failed) / float64(w.attempted)
		if w.svc != nil {
			w.svc.Close()
		}
	}
	return results{Schema: 1, Seed: cfg.seed, Seconds: cfg.budget.Seconds(), Workloads: out}, nil
}

// tracedPasses repeats the traced pass until the budget is used (at
// least once). svc_recompile gives a quarter of it to the layers of its
// base program and the rest to sessions through the service, with the
// harness's spans around every Service call.
func (w *workload) tracedPasses(sp *spans, budget time.Duration) {
	start := time.Now()
	layerBudget := budget
	if w.svc != nil {
		layerBudget = budget / 4
	}
	for first := true; first || time.Since(start) < layerBudget; first = false {
		w.layerPass(sp)
	}
	if w.svc == nil {
		return
	}
	svc := sp.start(w.name, "service", 0)
	defer svc.stop()
	for first := true; first || time.Since(start) < budget; first = false {
		w.sessions(sp, svc.id)
	}
}

func (r results) print() {
	for _, w := range r.Workloads {
		fmt.Printf("\n%s  attempted=%d failed=%d fail_share=%g\n", w.Name, w.Attempted, w.Failed, w.FailShare)
		for _, m := range w.Metrics {
			fmt.Printf("  %-30s %14.6g %-7s", m.Name, m.Value, m.Unit)
			if m.N > 0 {
				fmt.Printf(" n=%-4d min=%.6g q1=%.6g q3=%.6g", m.N, m.Min, m.Q1, m.Q3)
				if m.Raw != 0 {
					fmt.Printf(" raw=%.6g", m.Raw)
				}
				if m.TailP > 0 {
					fmt.Printf(" p%g=%.6g", 100*m.TailP, m.Tail)
				}
			}
			fmt.Println()
		}
		for _, f := range w.Failures {
			fmt.Printf("  FAILED: %s\n", f)
		}
	}
}

// contractLine is the single-workload result the driver reads: the last
// line of standard output.
func (w workloadResult) contractLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range w.Metrics {
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, _ := json.Marshal(map[string]any{ // a map of numbers and strings cannot fail to marshal
		"correct": w.Failed == 0, "attempted": w.Attempted, "failed": w.Failed, "metrics": metrics,
	})
	return string(line)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	workloadFlag := flag.String("workload", "", "run one workload (default: all five, sampled in rounds)")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Float64("seconds", 15, "measuring time per workload, for the untraced samples and again for the traced passes")
	traceFlag := flag.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only; default both")
	smoke := flag.Bool("smoke", false, "toy sizes (P <= 4, n <= 32), one repeat: checks the harness, measures nothing")
	outPath := flag.String("o", "", "write the results as JSON to this file")
	spansPath := flag.String("spans", "", "write the traced passes' spans as Chrome-trace JSON to this file")
	compare := flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	kernel := flag.Int("kernel", 0, "internal: time the reference kernel this many times and exit (calib.go)")
	kernelProcs := flag.Int("kernel-procs", 1, "internal: with -kernel, how many kernels run side by side")
	flag.Parse()

	if *kernel > 0 {
		kernelMain(*kernel, *kernelProcs)
		return
	}

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			os.Exit(2)
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	cfg := config{
		names: workloadNames, sz: fullSizes, seed: *seed,
		budget: time.Duration(*seconds * float64(time.Second)), batch: sampleBatch, kernelRuns: 3,
		endToEnd: *traceFlag != 1, layers: *traceFlag != 0,
	}
	if *workloadFlag != "" {
		cfg.names = []string{*workloadFlag}
	}
	if *smoke {
		cfg.sz, cfg.budget, cfg.batch, cfg.kernelRuns = smokeSizes, 0, 0, 0
	}
	sp := newSpans()
	res, err := run(cfg, sp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	res.Smoke = *smoke
	if *outPath != "" {
		if err := writeJSON(*outPath, res); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if *spansPath != "" {
		f, err := os.Create(*spansPath)
		if err == nil {
			err = sp.writeChrome(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	res.print()
	if cfg.layers {
		printSelfTimes(sp)
	}
	failed := 0
	for _, w := range res.Workloads {
		failed += w.Failed
	}
	if len(res.Workloads) == 1 {
		fmt.Println(res.Workloads[0].contractLine())
	}
	if failed > 0 {
		os.Exit(1)
	}
}

func printSelfTimes(sp *spans) {
	fmt.Printf("\nharness spans (self = total minus child spans)\n")
	for _, r := range sp.selfTimes() {
		fmt.Printf("  %-18s %-36s calls=%-5d total=%-12v self=%v\n", r.Workload, r.Name, r.Calls, r.Total, r.Self)
	}
}
