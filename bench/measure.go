package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fortd"
	"fortd/internal/ast"
	"fortd/internal/core"
	"fortd/internal/machine"
	"fortd/internal/parser"
	"fortd/internal/profile"
	"fortd/internal/sched"
	"fortd/internal/trace"
)

// workload is one spec set up and being measured. Every layer number is
// taken from outside: this file times calls into the packages and reads
// the events they already emit; it adds nothing to them.
type workload struct {
	*spec
	cfg config

	prog    *fortd.Program
	listing string
	runner  *fortd.Runner
	ref     map[string][]float64 // Runner.RunReference arrays
	stats0  *fortd.Stats         // the first run's; every repeat must equal it

	svc         *fortd.Service // svc_recompile only
	nextSession int
	svcOps      int
	svcWall     time.Duration

	attempted, failed int
	failures          []string
	times             map[string][]float64 // host seconds as measured; reported drift-corrected (calib.go)
	kernel            []float64            // refKernel's times, taken in the same rounds
	samples           map[string][]float64 // everything else that is sampled
	counts            map[string]float64   // deterministic per-layer values
	spent             time.Duration
}

func compileOptions() fortd.Options {
	o := fortd.DefaultOptions()
	o.Jobs = 1
	return o
}

// check counts one operation; a non-empty problem makes it a failed one.
func (w *workload) check(problem string) {
	w.attempted++
	if problem != "" {
		w.failed++
		w.failures = append(w.failures, problem)
	}
}

func (w *workload) add(name string, v float64) { w.samples[name] = append(w.samples[name], v) }

func (w *workload) addTime(name string, d time.Duration) {
	w.times[name] = append(w.times[name], d.Seconds())
}

// resetSamples forgets what was sampled so far (the counts stay: they
// must repeat).
func (w *workload) resetSamples() {
	w.times, w.samples, w.kernel = map[string][]float64{}, map[string][]float64{}, nil
	w.svcOps, w.svcWall = 0, 0
}

// setCount records a value that must repeat exactly; a later pass that
// disagrees is a failed operation.
func (w *workload) setCount(name string, v float64) {
	if old, ok := w.counts[name]; ok && old != v {
		w.check(fmt.Sprintf("%s = %v, an earlier pass had %v", name, v, old))
	}
	w.counts[name] = v
}

// setup does everything that precedes the first timed sample: generate
// the inputs from the seed, compute the oracle, compile (twice, for the
// listing check), run the sequential reference, and for svc_recompile
// start the service and seed its cache with the base program.
func setup(name string, cfg config) (*workload, error) {
	sp, err := buildSpec(name, cfg.sz, cfg.seed)
	if err != nil {
		return nil, err
	}
	w := &workload{spec: sp, cfg: cfg, counts: map[string]float64{}}
	w.resetSamples()
	if w.prog, err = fortd.Compile(sp.src, compileOptions()); err != nil {
		return nil, fmt.Errorf("%s: compile: %w", name, err)
	}
	w.listing = w.prog.Listing()
	w.check(w.listingProblem(fortd.Compile(sp.src, compileOptions())))
	w.runner = fortd.NewRunner(fortd.WithInit(sp.init))
	ref, err := w.runner.RunReference(w.prog)
	if err != nil {
		return nil, fmt.Errorf("%s: reference run: %w", name, err)
	}
	w.ref = ref.Arrays
	w.check(prefix("RunReference vs oracle: ", sameArrays(ref.Arrays, sp.want)))
	if name == "svc_recompile" {
		w.svc, err = fortd.NewService(fortd.ServiceConfig{Options: fortd.DefaultOptions(), Workers: svcClients})
		if err != nil {
			return nil, err
		}
		if _, err := w.svc.Compile(context.Background(), fortd.CompileRequest{Source: sp.src, Options: compileOptions()}); err != nil {
			return nil, fmt.Errorf("%s: seeding the service: %w", name, err)
		}
	}
	return w, nil
}

func prefix(p, problem string) string {
	if problem == "" {
		return ""
	}
	return p + problem
}

// listingProblem checks that a repeat compile reproduced the first
// compile's listing byte for byte.
func (w *workload) listingProblem(prog *fortd.Program, err error) string {
	if err != nil {
		return "compile: " + err.Error()
	}
	if prog.Listing() != w.listing {
		return "two compiles of the same text produced different listings"
	}
	return ""
}

// runProblem checks one run's arrays against the plain-Go oracle and
// the sequential reference, and its statistics against the first run's.
func (w *workload) runProblem(res *fortd.Result, want, ref map[string][]float64) string {
	if p := sameArrays(res.Arrays, want); p != "" {
		return "run vs oracle: " + p
	}
	if p := sameArrays(res.Arrays, ref); p != "" {
		return "run vs RunReference: " + p
	}
	if w.stats0 == nil {
		w.stats0 = &res.Stats
	}
	if s := res.Stats; s.Time != w.stats0.Time || s.Messages != w.stats0.Messages || s.Words != w.stats0.Words {
		return fmt.Sprintf("run stats %v differ from the first run's %v", s, *w.stats0)
	}
	return ""
}

// memFence collects garbage and reads the allocation counters, outside
// any timed region: every sample starts from the same heap.
func memFence() runtime.MemStats {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func allocMB(before runtime.MemStats) float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc-before.TotalAlloc) / 1e6
}

// hostPs is GOMAXPROCS as the process started with it.
var hostPs = runtime.GOMAXPROCS(0)

// onOneP puts a single-client workload on one P and returns the
// function that restores the setting. Compiler and executor are
// single-threaded there, and with a second P the collector's workers
// and the engine's coroutine hand-offs land on another, sometimes
// stolen, vCPU: run-to-run medians then moved 3-9 % on the 2-core box
// this was written on, against 1.5-2.5 % on one P. The service workload
// needs a P for each of its two clients and keeps them.
func (w *workload) onOneP() (restore func()) {
	if w.svc != nil {
		return func() {}
	}
	prev := runtime.GOMAXPROCS(1)
	return func() { runtime.GOMAXPROCS(prev) }
}

// sample takes one round of untraced samples: one compile sample and
// one run sample, or one chunk of service sessions.
func (w *workload) sample() {
	w.calibrate()
	if w.svc != nil {
		w.sessions(nil, 0)
		return
	}
	defer w.onOneP()()
	ran := w.runSample()
	// one more compile sample per second the run took, so that a workload
	// whose runs last seconds (dgefa) still collects more than a handful
	for n := min(3, 1+int(ran.Seconds())); n > 0; n-- {
		w.compileSample()
	}
}

// compileSample times fortd.Compile as the workload's user issues it:
// cold, Jobs=1, no cache. Where one compile is under a millisecond the
// sample is the mean of a batch of back-to-back compiles.
func (w *workload) compileSample() {
	runtime.GC()
	var total time.Duration
	var prog *fortd.Program
	var err error
	n := 0
	for n == 0 || (!w.coldCompile && err == nil && total < 2*w.cfg.batch) {
		start := time.Now()
		prog, err = fortd.Compile(w.src, compileOptions())
		total += time.Since(start)
		n++
	}
	w.addTime("compile_s", total/time.Duration(n))
	w.check(w.listingProblem(prog, err))
}

// runSample times one Runner.Run and returns how long it took.
func (w *workload) runSample() time.Duration {
	before := memFence()
	start := time.Now()
	res, err := w.runner.Run(w.prog)
	d := time.Since(start)
	mb := allocMB(before)
	if err != nil {
		w.check("run: " + err.Error())
		return d
	}
	w.addTime("run_s", d)
	w.add("alloc_mb", mb)
	w.add("virt_us", res.Stats.Time)
	w.check(w.runProblem(res, w.want, w.ref))
	return d
}

// sessionResult is what one client brought back from one session.
type sessionResult struct {
	session
	compile, run time.Duration
	cres         *fortd.CompileResult
	out          *fortd.RunOutcome
	err          error
}

// sessions pushes one chunk of the seeded session stream through the
// service with two closed-loop clients (each waits for its reply before
// sending the next request, as a caller of a compile daemon does), then
// verifies every reply outside the timed region. sp is nil in the
// untraced samples.
func (w *workload) sessions(sp *spans, parent int) {
	results := make([]sessionResult, w.cfg.sz.svcChunk)
	for i := range results {
		results[i].session = w.session(w.cfg.seed, w.nextSession+i)
	}
	w.nextSession += len(results)

	before := memFence()
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < svcClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			name := fmt.Sprintf("client-%d", c)
			client := sp.start(w.name, name, parent)
			defer client.stop()
			for i := int(next.Add(1)) - 1; i < len(results); i = int(next.Add(1)) - 1 {
				r := &results[i]
				t := sp.start(w.name, "Service.Compile", client.id)
				r.cres, r.err = w.svc.Compile(context.Background(), fortd.CompileRequest{
					Session: name, Source: r.src, Options: compileOptions()})
				r.compile = t.stop()
				if r.err != nil {
					continue
				}
				t = sp.start(w.name, "Service.Run", client.id)
				r.out, r.err = w.svc.Run(context.Background(), fortd.RunRequest{
					Session: name, ID: r.cres.ID, Init: w.init, Profile: r.profile, Workload: w.name})
				r.run = t.stop()
			}
		}(c)
	}
	wg.Wait()
	w.svcWall += time.Since(start)
	w.add("alloc_mb", allocMB(before)/float64(len(results)))

	// One end-to-end sample per chunk: the mean latency of its requests.
	// A single request's latency depends on what the other client is
	// doing at that moment (a profiled run beside it doubles a compile),
	// so the median of single latencies jumps between modes from run to
	// run; the chunk's request mix is fixed, and its mean is steady.
	var compile, run time.Duration
	done := 0
	for i := range results {
		r := &results[i]
		w.svcOps += 2
		if r.cres == nil {
			w.check("Service.Compile: " + r.err.Error())
			continue
		}
		w.check("")
		if r.err != nil {
			w.check("Service.Run: " + r.err.Error())
			continue
		}
		compile, run, done = compile+r.compile, run+r.run, done+1
		w.addTime("compile_latency", r.compile)
		w.addTime("run_latency", r.run)
		w.add("virt_us", r.out.Result.Stats.Time)
		if r.profile {
			w.addTime("run_profiled_latency", r.run)
		}
		if r.edited {
			hits, misses := float64(len(r.cres.CacheHits)), float64(len(r.cres.CacheMisses))
			w.add("edit_misses", misses)
			w.add("edit_hit_rate", hits/(hits+misses))
		}
		ref, err := w.runner.RunReference(r.cres.Program)
		if err != nil {
			w.check("session reference run: " + err.Error())
			continue
		}
		w.check(w.runProblem(r.out.Result, r.want, ref.Arrays))
	}
	if done > 0 {
		w.addTime("compile_s", compile/time.Duration(done))
		w.addTime("run_s", run/time.Duration(done))
	}
}

// layerPass is one traced pass over the layers of a fixed program: the
// compile pipeline call by call, the summary cache warm and after a
// one-procedure edit, an untraced and a traced run, the replay of the
// traced run's traffic through internal/machine alone, the profile
// distillation, the sequential reference and (dgefa) the hand-written
// code. Host times go to samples, one per pass; everything that must
// repeat exactly goes through setCount.
func (w *workload) layerPass(sp *spans) {
	w.calibrate()
	defer w.onOneP()()
	pass := sp.start(w.name, "pass", 0)
	defer pass.stop()

	w.pipelinePass(sp, pass.id)
	w.cachePass(sp, pass.id)

	// spmd: the same Runner.Run the end-to-end samples time
	before := memFence()
	var res *fortd.Result
	var err error
	d := sp.time(w.name, "Runner.Run", pass.id, func() { res, err = w.runner.Run(w.prog) })
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if err != nil {
		w.check("run: " + err.Error())
		return
	}
	w.check(w.runProblem(res, w.want, w.ref))
	w.addTime("spmd.run_s", d)
	w.add("spmd.allocs_per_run", float64(after.Mallocs-before.Mallocs))
	w.setCount("machine.msgs", float64(res.Stats.Messages))
	w.setCount("machine.words", float64(res.Stats.Words))
	w.setCount("machine.flops", float64(res.Stats.Flops))
	var remapMsgs int64
	for _, ps := range res.Stats.PerProc {
		remapMsgs += ps.RemapMsgs
	}
	w.setCount("machine.remap_msgs", float64(remapMsgs))

	tr := fortd.NewTrace()
	traced := fortd.NewRunner(fortd.WithInit(w.init), fortd.WithTrace(tr))
	runtime.GC()
	var tres *fortd.Result
	d = sp.time(w.name, "Runner.Run traced", pass.id, func() { tres, err = traced.Run(w.prog) })
	if err != nil {
		w.check("traced run: " + err.Error())
		return
	}
	w.check(w.runProblem(tres, w.want, w.ref))
	w.addTime("spmd.traced_run_s", d)
	events := tr.Events()
	w.setCount("profile.events", float64(len(events)))

	// machine: the traced run's traffic through the engine alone
	plan := planReplay(events, w.p)
	runtime.GC()
	var replayed machine.Stats
	d = sp.time(w.name, "machine replay", pass.id, func() { replayed, err = plan.run() })
	if err != nil {
		w.check("replay: " + err.Error())
	} else {
		w.check(sameTraffic(replayed, machine.Stats(tres.Stats)))
		w.addTime("machine.replay_s", d)
	}

	// profile: the distillation a profiled Service.Run pays on top
	runtime.GC()
	var pf *profile.Profile
	d = sp.time(w.name, "profile.FromEvents", pass.id, func() {
		pf = profile.FromEvents(events, profile.Meta{Workload: w.name, P: w.p})
	})
	w.addTime("profile.distill_s", d)
	if pf != nil {
		w.setCount("machine.blocked_share", pf.BlockedShare())
		w.setCount("machine.imbalance", pf.Imbalance())
		if buf, err := pf.Marshal(); err == nil {
			w.setCount("profile.bytes", float64(len(buf)))
		}
	}

	// the single-processor baseline
	runtime.GC()
	var ref *fortd.Result
	d = sp.time(w.name, "Runner.RunReference", pass.id, func() { ref, err = w.runner.RunReference(w.prog) })
	if err != nil {
		w.check("reference run: " + err.Error())
	} else {
		w.check(prefix("RunReference vs oracle: ", sameArrays(ref.Arrays, w.want)))
		w.addTime("spmd.ref_run_s", d)
	}

	if w.handSrc != "" {
		var hand *fortd.Result
		sp.time(w.name, "Runner.RunSPMD hand-written", pass.id, func() { hand, err = w.runner.RunSPMD(w.handSrc, w.p) })
		if err != nil {
			w.check("hand-written run: " + err.Error())
		} else {
			w.check(prefix("hand-written run vs oracle: ", sameArrays(hand.Arrays, w.want)))
			w.setCount("core.virt_vs_hand", res.Stats.Time/hand.Stats.Time)
		}
	}
}

// phaseMetric maps the compile-phase spans core already emits to the
// per-layer metric each feeds.
var phaseMetric = map[string]string{
	"acg-build":               "core.acg_s",
	"reaching-decompositions": "core.reach_s",
	"section-analysis":        "core.sections_s",
	"overlap-estimates":       "core.overlap_est_s",
	"symbolic-constants":      "core.symconst_s",
}

// pipelinePass times parser.Parse, core.CompileProgram (Overlap off, so
// it ends where sched begins) and sched.Apply one after the other on
// the same program, in batches where a call is short.
func (w *workload) pipelinePass(sp *spans, parent int) {
	pipe := sp.start(w.name, "compile pipeline", parent)
	defer pipe.stop()
	opts := core.DefaultOptions()
	opts.Overlap = false

	var parse, compile, apply time.Duration
	phases := map[string]time.Duration{}
	var c *core.Compilation
	sites, n := 0, 0
	runtime.GC()
	for n == 0 || parse+compile+apply < w.cfg.batch {
		var parsed *ast.Program
		var err error
		parse += sp.time(w.name, "parser.Parse", pipe.id, func() { parsed, err = parser.Parse(w.src) })
		if err != nil {
			w.check("parser.Parse: " + err.Error())
			return
		}
		opts.Trace = trace.New()
		compile += sp.time(w.name, "core.CompileProgram", pipe.id, func() { c, err = core.CompileProgram(parsed, opts) })
		if err != nil {
			w.check("core.CompileProgram: " + err.Error())
			return
		}
		apply += sp.time(w.name, "sched.Apply", pipe.id, func() { sites = sched.Apply(c.Program, nil) })
		for _, ev := range opts.Trace.Events() {
			if name, ok := phaseMetric[ev.Name]; ok {
				phases[name] += time.Duration(ev.Dur * float64(time.Microsecond))
			}
		}
		n++
	}
	w.addTime("parser.parse_s", parse/time.Duration(n))
	w.addTime("core.compile_s", compile/time.Duration(n))
	w.addTime("sched.apply_s", apply/time.Duration(n))
	for _, name := range phaseMetric {
		w.addTime(name, phases[name]/time.Duration(n))
	}
	listing := ast.Print(c.Program)
	if listing == w.listing {
		w.check("")
	} else {
		w.check("parse + core.CompileProgram + sched.Apply produced a different listing than fortd.Compile")
	}
	w.setCount("core.messages", float64(c.Report.Messages))
	w.setCount("core.guards", float64(c.Report.Guards))
	w.setCount("core.loops_reduced", float64(c.Report.LoopsReduced))
	w.setCount("core.remaps", float64(c.Report.Remaps))
	w.setCount("core.cloned", float64(c.Report.Cloned))
	w.setCount("core.listing_bytes", float64(len(listing)))
	w.setCount("sched.sites", float64(sites))

	opts.Trace = nil
	opts.Jobs = 2
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(hostPs)) // two workers want two Ps
	var jobs2 time.Duration
	for n = 0; n == 0 || jobs2 < w.cfg.batch; n++ {
		parsed, err := parser.Parse(w.src)
		if err != nil {
			return // reported above
		}
		jobs2 += sp.time(w.name, "core.CompileProgram jobs=2", pipe.id, func() { _, err = core.CompileProgram(parsed, opts) })
		if err != nil {
			w.check("core.CompileProgram jobs=2: " + err.Error())
			return
		}
	}
	w.addTime("core.compile_jobs2_s", jobs2/time.Duration(n))
}

// cachePass times fortd.Compile against a summary cache that already
// holds every procedure (warm), and again after a one-procedure edit.
// Each iteration fills a fresh cache first, so the edit is always new.
func (w *workload) cachePass(sp *spans, parent int) {
	pass := sp.start(w.name, "summary cache", parent)
	defer pass.stop()
	var warm, edit time.Duration
	var warmProg, editProg *fortd.Program
	n := 0
	for ; n == 0 || warm+edit < w.cfg.batch; n++ {
		opts := compileOptions()
		opts.Cache = fortd.NewSummaryCache()
		_, err := fortd.Compile(w.src, opts)
		if err == nil {
			warm += sp.time(w.name, "fortd.Compile warm cache", pass.id, func() { warmProg, err = fortd.Compile(w.src, opts) })
		}
		if err == nil {
			edit += sp.time(w.name, "fortd.Compile one-procedure edit", pass.id, func() { editProg, err = fortd.Compile(w.editedSrc, opts) })
		}
		if err != nil {
			w.check("compile through the cache: " + err.Error())
			return
		}
	}
	w.addTime("summarycache.warm_compile_s", warm/time.Duration(n))
	w.addTime("summarycache.edit_compile_s", edit/time.Duration(n))
	w.check(w.listingProblem(warmProg, nil))
	hits, misses := len(warmProg.CacheHits()), len(warmProg.CacheMisses())
	w.setCount("summarycache.hit_rate", float64(hits)/float64(hits+misses))
	w.setCount("summarycache.edit_misses", float64(len(editProg.CacheMisses())))
}

// reported turns one metric's samples into its reported value: the
// median, drift-corrected if the samples are host seconds.
func (w *workload) reported(name string) summary {
	if t, ok := w.times[name]; ok {
		return summarize(t).scaled(1 / w.drift())
	}
	return summarize(w.samples[name])
}

// endToEndMetrics reduces the untraced samples to the gated values.
func (w *workload) endToEndMetrics() []metricValue {
	var out []metricValue
	for _, def := range endToEnd {
		s := w.reported(def.Name)
		out = append(out, metricValue{Name: def.Name, Unit: def.Unit, Kind: "end_to_end",
			Value: s.Median, Raw: median(w.times[def.Name]), summary: s})
	}
	return out
}

// layerMetrics reduces the traced passes to the per-layer values: the
// drift-corrected median of each timed call over the passes, the exact
// counts, and the quantities derived from them. A metric that does not
// apply to the workload (the service's on a bare program, the
// hand-written ratio away from dgefa) reads 0.
func (w *workload) layerMetrics() []metricValue {
	v := map[string]float64{"host.drift": w.drift()}
	for name, c := range w.counts {
		v[name] = c
	}
	for name := range w.samples {
		v[name] = w.reported(name).Median
	}
	for name := range w.times {
		v[name] = w.reported(name).Median
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	v["parser.src_mb_per_s"] = ratio(float64(len(w.src))/1e6, v["parser.parse_s"])
	v["core.phase3_s"] = v["core.compile_s"]
	for _, name := range phaseMetric {
		v["core.phase3_s"] -= v[name]
	}
	v["spmd.self_s"] = v["spmd.run_s"] - v["machine.replay_s"]
	v["spmd.self_share"] = ratio(v["spmd.self_s"], v["spmd.run_s"])
	v["spmd.host_ns_per_flop"] = ratio(v["spmd.self_s"]*1e9, v["machine.flops"])
	v["spmd.trace_overhead"] = ratio(v["spmd.traced_run_s"], v["spmd.run_s"])
	v["machine.host_ns_per_msg"] = ratio(v["machine.replay_s"]*1e9, v["machine.msgs"])
	if w.svc != nil {
		st := w.svc.Stats()
		// through the service's shared cache, per compile of an edited text
		v["summarycache.hit_rate"] = v["edit_hit_rate"]
		v["summarycache.edit_misses"] = v["edit_misses"]
		v["service.ops_per_s"] = ratio(float64(w.svcOps), w.svcWall.Seconds()/w.drift())
		v["service.compile_p50_s"] = v["compile_latency"]
		v["service.compile_p95_s"] = percentile(w.times["compile_latency"], 0.95) / w.drift()
		v["service.run_p50_s"] = v["run_latency"]
		v["service.run_p95_s"] = percentile(w.times["run_latency"], 0.95) / w.drift()
		v["service.run_profiled_p50_s"] = v["run_profiled_latency"]
		v["service.run_solo_s"] = v["spmd.run_s"]
		v["service.rejected"] = float64(st.Rejected + st.RateLimited)
		if stored, err := w.svc.Profiles(); err == nil {
			v["service.profiles_stored"] = float64(len(stored))
		}
	}
	var out []metricValue
	for _, def := range perLayer {
		mv := metricValue{Name: def.Name, Unit: def.Unit, Kind: "per_layer", Value: v[def.Name], Raw: median(w.times[def.Name])}
		if w.times[def.Name] != nil || w.samples[def.Name] != nil {
			mv.summary = w.reported(def.Name)
		}
		out = append(out, mv)
	}
	return out
}
