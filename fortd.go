// Package fortd is an interprocedural Fortran D compiler and
// distributed-memory machine simulator, reproducing
//
//	Hall, Hiranandani, Kennedy, Tseng:
//	"Interprocedural Compilation of Fortran D for MIMD
//	Distributed-Memory Machines", Supercomputing '92.
//
// The compiler translates sequential Fortran 77 programs annotated with
// Fortran D data-placement directives (DECOMPOSITION, ALIGN,
// DISTRIBUTE) into SPMD node programs with explicit message passing.
// Interprocedural analyses — reaching decompositions, procedure
// cloning, delayed instantiation of the computation partition,
// communication and dynamic data decomposition, interprocedural RSD
// summaries, overlap calculation, and live-decomposition optimization —
// let it compile each procedure in a single pass while generating
// caller-level vectorized communication.
//
// Basic usage:
//
//	prog, err := fortd.Compile(src, fortd.DefaultOptions())
//	res, err := fortd.NewRunner(fortd.WithInit(init)).Run(prog)
//	fmt.Println(res.Stats)
//
// Runs are configured through a Runner built from functional options.
// Every entry point has a context-aware form — CompileContext,
// Runner.RunContext, Runner.RunReferenceContext, Runner.RunSPMDContext
// — whose cancellation stops the phase-3 compile pipeline at the next
// task boundary and aborts a simulated run through the machine's
// cooperative-abort channel; the plain forms are thin wrappers over
// context.Background(). To observe a run (or a compilation), attach a
// Trace:
//
//	tr := fortd.NewTrace()
//	r := fortd.NewRunner(fortd.WithTrace(tr), fortd.WithInit(init))
//	res, err := r.RunContext(ctx, prog)
//	tr.WriteText(os.Stdout)         // human-readable summary
//	tr.WriteChrome(f)               // chrome://tracing / Perfetto JSON
//
// For serving many compilations from one process — a compile daemon —
// see Service, which owns a shared SummaryCache (optionally disk-
// persisted via NewDiskSummaryCache), a bounded worker pool and
// per-session rate limits; cmd/fdd exposes it over HTTP/JSON.
package fortd

import (
	"context"
	"fmt"
	"sync"
	"time"

	"fortd/internal/ast"
	"fortd/internal/codegen"
	"fortd/internal/core"
	"fortd/internal/decomp"
	"fortd/internal/explain"
	"fortd/internal/livedecomp"
	"fortd/internal/machine"
	"fortd/internal/parser"
	"fortd/internal/spmd"
	"fortd/internal/summarycache"
	"fortd/internal/trace"
)

// Strategy selects the compilation strategy: the paper's
// interprocedural compilation or one of its two baselines.
type Strategy = codegen.Strategy

// Compilation strategies.
const (
	// Interprocedural is the paper's contribution: single-pass
	// reverse-topological compilation with delayed instantiation.
	Interprocedural = codegen.StrategyInterproc
	// RuntimeResolution resolves ownership and communication per
	// element reference at run time (Figure 3 baseline).
	RuntimeResolution = codegen.StrategyRuntime
	// Immediate performs compile-time analysis but instantiates
	// partitions and communication inside each procedure, without
	// crossing procedure boundaries (Figure 12 baseline).
	Immediate = codegen.StrategyImmediate
)

// ParseStrategy maps the name the commands and the daemon's options
// use for a strategy — interproc, runtime or immediate — to it.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "interproc":
		return Interprocedural, nil
	case "runtime":
		return RuntimeResolution, nil
	case "immediate":
		return Immediate, nil
	}
	return 0, fmt.Errorf("unknown strategy %q (want interproc, runtime or immediate)", name)
}

// RemapLevel is the dynamic data decomposition optimization ladder of
// Figure 16.
type RemapLevel = livedecomp.Level

// Remap optimization levels.
const (
	RemapNone  = livedecomp.OptNone
	RemapLive  = livedecomp.OptLive
	RemapHoist = livedecomp.OptHoist
	RemapKills = livedecomp.OptKills
)

// ParseRemapLevel maps a remap level's name — none, live, hoist or
// kills, as RemapLevel.String prints it — to the level.
func ParseRemapLevel(name string) (RemapLevel, error) {
	for _, l := range []RemapLevel{RemapNone, RemapLive, RemapHoist, RemapKills} {
		if l.String() == name {
			return l, nil
		}
	}
	return 0, fmt.Errorf("unknown remap level %q (want none, live, hoist or kills)", name)
}

// MachineConfig is the simulated machine's size and cost model.
type MachineConfig = machine.Config

// Trace collects structured events from a compilation and/or a
// simulated run: compiler phase spans and counters, one event per
// message/broadcast-step/remap with source attribution, and
// per-processor virtual-time totals. Create with NewTrace, attach via
// Options.Trace or WithTrace, then export with WriteText (human
// summary) or WriteChrome (trace_event JSON). A nil *Trace disables
// tracing at near-zero cost.
//
// Concurrency: a Trace is safe for concurrent emission — the parallel
// compile pipeline and all simulated processors of one run feed one
// Trace. Do NOT share one Trace across concurrent compilations or
// runs, though: their events interleave into one stream and the
// exporters cannot split them apart again. Per-request observability
// wants one Trace per request (the compile daemon does exactly that).
type Trace = trace.Tracer

// NewTrace returns an enabled trace sink.
func NewTrace() *Trace { return trace.New() }

// Explain collects structured optimization remarks from every compiler
// pass: why a message was (or was not) vectorized and at which loop
// level, which remaps were eliminated by which Figure 16 rule, which
// procedures were cloned or left to run-time resolution, per-array
// overlap widths, and every rejection (aliasing, un-buildable
// DISTRIBUTE). Create with NewExplain, attach via Options.Explain,
// then export with WriteText (grouped by procedure), WriteJSON (one
// JSON object per line) or WriteAnnotated (source listing with
// interleaved remarks). A nil *Explain disables remark collection at
// zero cost.
//
// Concurrency: an Explain is safe for concurrent Add calls (the
// parallel compile pipeline relies on it), but like a Trace it is a
// single stream — attach one collector per compilation or run, not one
// per process.
type Explain = explain.Collector

// Remark is a single optimization remark.
type Remark = explain.Remark

// NewExplain returns an enabled remark collector.
func NewExplain() *Explain { return explain.New() }

// Stats reports a simulated run's communication and time statistics.
// Time is the parallel execution time (the maximum processor clock) in
// simulated microseconds.
type Stats = machine.Stats

// DefaultMachine returns an iPSC/860-like cost model with p processors.
func DefaultMachine(p int) MachineConfig { return machine.DefaultConfig(p) }

// FaultPlan describes seeded, deterministic fault injection for a
// simulated run: per-message delivery delays, straggler processors,
// and bounded message duplication. The same seed reproduces the same
// faults. Attach with WithFaults.
type FaultPlan = machine.FaultPlan

// AbortError reports a processor unblocked by a machine-wide
// cooperative abort: when any processor fails, every peer blocked in a
// communication primitive returns one of these instead of hanging.
// Unwrap returns the originating cause.
type AbortError = machine.AbortError

// NodeError is one simulated processor's own run-time failure: a
// statement of its node program that could not execute (subscript out
// of bounds, unknown procedure, bad intrinsic call, mismatched message
// size). Its peers report AbortErrors.
type NodeError = spmd.NodeError

// InitError reports a WithInit slice whose length is not the element
// count of the main-program array it seeds. The run fails before the
// machine starts.
type InitError = spmd.InitError

// PanicError reports a node program that panicked — an executor bug.
// The machine contains it: the run fails, the process survives.
type PanicError = machine.PanicError

// DeadlockError is the machine's structured report of a run that
// cannot finish: every live processor blocked on a link (or the run
// exceeding its wall-clock deadline), with per-processor attribution.
type DeadlockError = machine.DeadlockError

// CongestionError reports a send into a full link buffer with no
// receiver draining it, naming the congested (src, dst) pair.
type CongestionError = machine.CongestionError

// Options configures compilation: the processor count, the strategy,
// the Figure 16 remap level, the cloning limit, trace and remark sinks,
// phase-3 workers, the summary cache, a deadline and the overlap
// schedule. Validate reports the first invalid field, and Compile calls
// it, so malformed options fail loudly instead of being silently
// defaulted. WithOverlap switches the overlap schedule for call-site
// chaining:
//
//	fortd.DefaultOptions().WithOverlap(false)
type Options = core.Options

// DefaultOptions enables the full interprocedural pipeline.
func DefaultOptions() Options { return core.DefaultOptions() }

// SummaryCache is a content-hashed cache of per-procedure compilation
// results, shared across Compile calls via Options.Cache. See
// Options.Cache for the invalidation contract.
//
// Concurrency: a SummaryCache is safe for concurrent use. Any number of
// goroutines may compile through one shared cache simultaneously (the
// compile daemon does exactly that); entries are immutable once stored
// and spliced into programs unwritten. With a disk tier
// (NewDiskSummaryCache), separate processes may also share the same
// directory without coordination.
type SummaryCache = summarycache.Cache

// CacheStats reports a summary cache's hit/miss counters and size.
type CacheStats = summarycache.Stats

// NewSummaryCache returns an empty in-memory summary cache.
func NewSummaryCache() *SummaryCache { return summarycache.New() }

// NewDiskSummaryCache returns a summary cache backed by entry files
// under dir (created as needed): entries stored by earlier runs or by
// other processes sharing the directory are served as disk hits, with
// no phase-3 re-analysis, and fresh entries are written through. The
// content-hash keys already cover every compilation input, so the §8
// recompilation predicate doubles as the cross-process invalidation
// contract — an edited procedure hashes to a new key, and stale
// entries are simply never probed again.
func NewDiskSummaryCache(dir string) (*SummaryCache, error) {
	return summarycache.Open(dir)
}

// Report summarizes what code generation did: messages and ownership
// guards inserted, loop bounds reduced to local iterations, dynamic
// remaps placed, and procedures cloned. Its String renders the counters
// on one line, naming each procedure left to run-time resolution.
type Report = core.Report

// Program is a compiled Fortran D program.
//
// Concurrency: a Program is safe for concurrent use — any number of
// goroutines may inspect it and run it (each run builds a fresh
// simulated machine). Its compiled form never changes after Compile
// returns; its first run lowers it to an execution plan, and its first
// reference run the source program, which it keeps and every later run
// shares. A plan is about the size of the compiled program itself.
type Program struct {
	c *core.Compilation
	// node and ref return the plans of the node program on P processors
	// and of the source program on one, each lowered on its first call
	node, ref func() *spmd.Plan
}

// Compile compiles Fortran D source text. It is CompileContext with a
// background context.
func Compile(src string, opts Options) (*Program, error) {
	return CompileContext(context.Background(), src, opts)
}

// CompileContext compiles Fortran D source text under a cancellation
// context: when ctx is cancelled (a dropped client, a server shutting
// down) the phase-3 compile pipeline stops at the next procedure-task
// boundary and CompileContext returns ctx.Err(). A cancelled
// compilation never stores partial results into Options.Cache, so a
// shared cache stays byte-for-byte reproducible. Options.Deadline, when
// set, bounds the compilation's wall-clock time through the same
// mechanism.
func CompileContext(ctx context.Context, src string, opts Options) (*Program, error) {
	c, err := core.CompileContext(ctx, src, opts)
	if err != nil {
		return nil, err
	}
	// each node program stores its blocks with the estimated overlap regions
	return &Program{c: c,
		node: sync.OnceValue(func() *spmd.Plan {
			return spmd.Lower(c.Program, c.P, c.MainDists, c.Overlaps.Extents, c.Options.Cache.Codes())
		}),
		ref: sync.OnceValue(func() *spmd.Plan { return spmd.Lower(c.Source, 1, nil, nil, c.Options.Cache.Codes()) }),
	}, nil
}

// P returns the processor count the program was compiled for.
func (p *Program) P() int { return p.c.P }

// Listing renders the generated SPMD program as source text.
func (p *Program) Listing() string { return p.c.Options.Cache.Listing(p.c.Program) }

// SourceListing renders the original input program.
func (p *Program) SourceListing() string { return ast.Print(p.c.Source) }

// Report returns code generation statistics.
func (p *Program) Report() Report { return p.c.Report }

// Clones maps generated procedure clones to their originals.
func (p *Program) Clones() map[string]string { return p.c.Reach.ClonedFrom }

// CacheHits returns the sorted procedures served from Options.Cache
// during this compilation (nil when no cache was attached).
func (p *Program) CacheHits() []string { return p.c.CacheHits }

// CacheMisses returns the sorted procedures compiled fresh (and stored
// into Options.Cache) during this compilation (nil without a cache).
func (p *Program) CacheMisses() []string { return p.c.CacheMisses }

// OverlapExtent reports the overlap region estimated for (procedure,
// array) in the given dimension with the given local block size,
// e.g. (1, 30) for the paper's REAL X(30).
func (p *Program) OverlapExtent(proc, array string, dim, blockSize int) (lo, hi int) {
	return p.c.Overlaps.Extents(proc, array, dim, blockSize)
}

// Result is the outcome of a simulated run: Stats holds simulated time,
// message and word counts, and Arrays the main program's arrays,
// assembled from the owning processors.
type Result = spmd.RunResult

// Runner executes programs on the simulated machine. The zero value
// (or NewRunner with no options) runs with the default machine, no
// initial data, and tracing disabled; configure it with functional
// options. A Runner is stateless across calls and may be reused.
type Runner struct {
	machine     MachineConfig
	init        map[string][]float64
	initScalars map[string]float64
	trace       *Trace
	deadline    time.Duration
	faults      *FaultPlan
}

// RunOption configures a Runner.
type RunOption func(*Runner)

// WithMachine overrides the simulated machine's cost model, link depth
// and deadline. P may be left 0: the machine is sized to the program;
// any other P that is not the program's fails the run before it starts.
// Latency, PerWord and FlopCost all zero with P 0 mean DefaultMachine's
// cost model, so MachineConfig{LinkDepth: 4} changes the depth alone.
func WithMachine(cfg MachineConfig) RunOption {
	return func(r *Runner) { r.machine = cfg }
}

// WithInit seeds main-program arrays (row-major global order); each
// simulated processor starts with the elements it owns.
func WithInit(arrays map[string][]float64) RunOption {
	return func(r *Runner) { r.init = arrays }
}

// WithInitScalars seeds main-program scalars.
func WithInitScalars(scalars map[string]float64) RunOption {
	return func(r *Runner) { r.initScalars = scalars }
}

// WithTrace attaches a trace sink: every send/recv/broadcast/remap of
// the run is recorded with its virtual time and source attribution,
// plus per-processor end-of-run totals. nil disables tracing.
func WithTrace(t *Trace) RunOption {
	return func(r *Runner) { r.trace = t }
}

// WithDeadline bounds a run's wall-clock time: when it expires the
// machine aborts and the run returns a *DeadlockError (Deadline: true)
// reporting where every processor was blocked. 0 means no deadline
// (a true deadlock is still detected and reported).
func WithDeadline(d time.Duration) RunOption {
	return func(r *Runner) { r.deadline = d }
}

// WithFaults attaches a seeded fault-injection plan to runs executed
// through this Runner. nil disables injection.
func WithFaults(fp *FaultPlan) RunOption {
	return func(r *Runner) { r.faults = fp }
}

// machineFor resolves the WithMachine configuration for a program of
// nproc node programs. A machine of another size would start the wrong
// number of them: too few and the run ends early with a wrong answer,
// too many and the extra ones block on peers that do not exist.
func (r *Runner) machineFor(nproc int) (MachineConfig, error) {
	cfg := r.machine
	if cfg.P != 0 && cfg.P != nproc {
		return cfg, fmt.Errorf("fortd: WithMachine configures %d processors, the program runs on %d", cfg.P, nproc)
	}
	if cfg.P == 0 && cfg.Latency == 0 && cfg.PerWord == 0 && cfg.FlopCost == 0 {
		def := machine.DefaultConfig(nproc)
		cfg.Latency, cfg.PerWord, cfg.FlopCost = def.Latency, def.PerWord, def.FlopCost
	}
	cfg.P = nproc
	return cfg, nil
}

// options is what the Runner sets of one run.
func (r *Runner) options() spmd.Options {
	return spmd.Options{Init: r.init, InitScalars: r.initScalars, Trace: r.trace, Faults: r.faults, Deadline: r.deadline}
}

// NewRunner builds a Runner from functional options.
func NewRunner(opts ...RunOption) *Runner {
	r := &Runner{}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Run executes the compiled SPMD program on the simulated machine. It
// is RunContext with a background context.
func (r *Runner) Run(p *Program) (*Result, error) {
	return r.RunContext(context.Background(), p)
}

// RunContext executes the compiled SPMD program on the simulated
// machine under a cancellation context: when ctx is cancelled mid-run
// the machine's cooperative abort unblocks every simulated processor
// and RunContext returns ctx.Err(). The machine's own failure modes —
// deadlock detection, WithDeadline, congestion — are unchanged.
func (r *Runner) RunContext(ctx context.Context, p *Program) (*Result, error) {
	cfg, err := r.machineFor(p.c.P)
	if err != nil {
		return nil, err
	}
	return p.node().Run(ctx, cfg, r.options())
}

// RunReference executes the original sequential program (one
// processor, no communication) and returns the reference result. It is
// RunReferenceContext with a background context.
func (r *Runner) RunReference(p *Program) (*Result, error) {
	return r.RunReferenceContext(context.Background(), p)
}

// RunReferenceContext is RunReference under a cancellation context
// (see RunContext).
func (r *Runner) RunReferenceContext(ctx context.Context, p *Program) (*Result, error) {
	return p.ref().RunSequential(ctx, r.options())
}

// RunSPMD executes hand-written SPMD node-program text directly on the
// simulated machine, without compiling it — the way the paper's
// hand-coded comparison points run. DISTRIBUTE directives in the main
// program supply the distribution descriptors used for allgather/remap
// semantics and result assembly; they generate no code. A DISTRIBUTE
// whose descriptor cannot be built (non-constant dimension bounds,
// rank mismatch, bad machine size) is a compile-time error.
// nproc <= 0 reads the main program's n$proc PARAMETER (default 4).
// It is RunSPMDContext with a background context.
func (r *Runner) RunSPMD(src string, nproc int) (*Result, error) {
	return r.RunSPMDContext(context.Background(), src, nproc)
}

// RunSPMDContext is RunSPMD under a cancellation context (see
// RunContext).
func (r *Runner) RunSPMDContext(ctx context.Context, src string, nproc int) (*Result, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	main := prog.Main()
	if main == nil {
		return nil, fmt.Errorf("fortd: SPMD text has no main program")
	}
	env := main.Constants()
	if n, ok := env["n$proc"]; nproc <= 0 && ok {
		nproc = n
	} else if nproc <= 0 {
		nproc = 4
	}
	dists := map[string]*decomp.Dist{}
	// WalkStmts keeps visiting siblings after a false return, so the
	// first failure is latched in werr and checked on every visit.
	var werr error
	ast.WalkStmts(main.Body, func(s ast.Stmt) bool {
		if werr != nil {
			return false
		}
		d, ok := s.(*ast.Distribute)
		if !ok {
			return true
		}
		sym := main.Symbols.Lookup(d.Target)
		if sym == nil || sym.Kind != ast.SymArray {
			werr = fmt.Errorf("fortd: DISTRIBUTE %s: not a declared array", d.Target)
			return false
		}
		sizes, ok := sym.Extents(env)
		if !ok {
			werr = fmt.Errorf("fortd: DISTRIBUTE %s: dimension %d bounds are not compile-time constants", d.Target, len(sizes)+1)
			return false
		}
		dist, err := decomp.NewDist(decomp.NewDecomp(d.Specs...), sizes, nproc)
		if err != nil {
			werr = fmt.Errorf("fortd: DISTRIBUTE %s: %v", d.Target, err)
			return false
		}
		dists[d.Target] = dist
		return true
	})
	if werr != nil {
		return nil, werr
	}
	cfg, err := r.machineFor(nproc)
	if err != nil {
		return nil, err
	}
	return spmd.Lower(prog, nproc, dists, nil, nil).Run(ctx, cfg, r.options())
}

// DataflowProblem is one row of the paper's Table 1: an
// interprocedural data-flow problem, its propagation direction over
// the call graph, the compilation phase that solves it, and the
// package implementing it here.
type DataflowProblem = core.DataflowProblem

// Table1 returns the paper's Table 1 as implemented by this compiler.
func Table1() []DataflowProblem { return core.Table1() }
