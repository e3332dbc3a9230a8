// Package spmd executes generated SPMD node programs on the simulated
// MIMD machine: every processor runs the same program text as one node
// program of the machine, with my$p = myproc() selecting its behavior,
// exactly as the compiler's output would run on the nodes of a
// distributed-memory machine, each holding its own share of a
// distributed array and nothing of the rest (storage.go). A program is
// lowered once (Lower) to an execution plan — identifiers resolved to
// frame slots, statements and expressions compiled to Go closures, flop
// counts fixed statically — that all processors of every run share
// read-only (lower.go, expr.go, comm.go); fortd.Program lowers each of
// its programs once, on its first run. The same executor runs original
// (sequential) Fortran D programs on one processor to produce reference
// results for correctness checks.
package spmd

import (
	"context"
	"errors"
	"fmt"
	"time"

	"fortd/internal/machine"
	"fortd/internal/trace"
)

// Options configures what varies from one run of a plan to the next;
// what shapes the plan is Lower's.
type Options struct {
	// Init seeds main-program arrays before execution (array → values
	// in row-major global order); each processor takes the elements it
	// owns. A slice whose length is not its array's element count fails
	// the run with an *InitError; a name that is no main-program array
	// is ignored.
	Init map[string][]float64
	// InitScalars seeds main-program scalars.
	InitScalars map[string]float64
	// Trace collects per-message events and per-processor timelines
	// (nil: tracing disabled, the zero-cost default).
	Trace *trace.Tracer
	// Faults injects seeded, deterministic faults into the machine
	// (nil: none). Validated before the run starts.
	Faults *machine.FaultPlan
	// Deadline bounds the run's wall-clock time (0: none). Deadlocked
	// schedules are detected and reported by the machine even without
	// a deadline.
	Deadline time.Duration
}

// RunResult carries the outcome of a parallel run.
type RunResult struct {
	Stats machine.Stats
	// Arrays holds the main program's arrays assembled from the owning
	// processors (the logically-global result).
	Arrays map[string][]float64
	// siteBufs counts the site buffers made for main-program arrays.
	siteBufs int
}

// Run executes the plan under the given machine configuration, which
// must have the processor count the plan was lowered for. A failing run
// cannot hang: when any processor's node program errors, every peer is
// unblocked with a machine.AbortError, and a mismatched communication
// schedule is detected by the machine and returned as a
// machine.DeadlockError report. All per-processor errors are joined, so
// no failure is dropped. When ctx is cancelled mid-run the machine's
// cooperative abort unblocks every processor and the run returns
// ctx.Err(). Any number of runs of one plan may proceed at once.
func (pl *Plan) Run(ctx context.Context, cfg machine.Config, opts Options) (*RunResult, error) {
	if pl.main == nil {
		return nil, errors.New("spmd: program has no main unit")
	}
	if cfg.P != pl.nproc {
		return nil, fmt.Errorf("spmd: the plan was lowered for %d processors, the machine has %d", pl.nproc, cfg.P)
	}
	if err := pl.checkInit(opts.Init); err != nil {
		return nil, err
	}
	ar := pl.newArena(cfg.P)
	return runNodes(ctx, cfg, opts, pl.main.names, func(proc *machine.Proc) ([]*Array, error) {
		return pl.run(proc, opts, ar)
	})
}

// runNodes builds the machine, runs node as every processor's node
// program, and distills the run: joined errors, machine statistics,
// the per-processor summary trace events and the assembled main-program
// arrays. node returns its processor's main-program arrays, the one
// named names[i] at i (nil: none).
func runNodes(ctx context.Context, cfg machine.Config, opts Options, names []string,
	node func(proc *machine.Proc) ([]*Array, error)) (*RunResult, error) {
	if err := opts.Faults.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if opts.Deadline > 0 {
		cfg.Deadline = opts.Deadline
	}
	m := machine.New(cfg)
	if ctx.Done() != nil {
		// a dropped client aborts its simulated run: the watcher feeds
		// the context's cancellation into the PR-5 abort channel, and
		// closing stop retires it once the run is over
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-ctx.Done():
				m.Abort(-1, ctx.Err())
			case <-stop:
			}
		}()
	}
	if opts.Trace != nil {
		m.SetTracer(opts.Trace)
	}
	m.SetFaultPlan(opts.Faults)
	mains := make([][]*Array, cfg.P)
	errs := make([]error, cfg.P)
	run := func(proc *machine.Proc) { // one closure for every processor
		pid := proc.ID()
		arrays, err := node(proc)
		if err != nil {
			errs[pid] = err
			// unblock every peer: they fail with an AbortError
			// naming this processor as the origin
			m.Abort(pid, err)
			return
		}
		mains[pid] = arrays
	}
	for pid := 0; pid < cfg.P; pid++ {
		m.Go(pid, run)
	}
	waitErr := m.Wait()
	if err := joinRunErrors(m, errs, waitErr); err != nil {
		return nil, err
	}
	res := &RunResult{Stats: m.Stats(), Arrays: map[string][]float64{}}
	if opts.Trace != nil {
		for pid, ps := range res.Stats.PerProc {
			opts.Trace.Emit(trace.Event{
				Kind: trace.KindProcSummary, PID: pid,
				Dur: ps.Clock, Wait: ps.Wait, Words: int(ps.Words),
				Sent: ps.Sent, Recvd: ps.Received, Flops: ps.Flops,
			})
		}
	}
	assemble(res, names, mains)
	return res, nil
}

// NodeError is a failure of one processor's node program itself — a
// statement that could not execute (subscript out of bounds, unknown
// procedure, bad intrinsic call, mismatched message size) — as opposed
// to the *machine.AbortError its peers are unblocked with.
type NodeError struct {
	PID int
	Err error
}

func (e *NodeError) Error() string { return fmt.Sprintf("p%d: %v", e.PID, e.Err) }
func (e *NodeError) Unwrap() error { return e.Err }

// InitError reports an Options.Init entry whose length is not the
// element count of the main-program array it seeds.
type InitError struct {
	Array         string
	Values, Elems int
}

func (e *InitError) Error() string {
	return fmt.Sprintf("init %s: %d values for %d elements", e.Array, e.Values, e.Elems)
}

// joinRunErrors combines a run's failures into one error: each
// processor's own (executor-level) error as a *NodeError, each
// aborted peer's AbortError, and the machine-level cause. A pure
// deadlock — no node program erred, the machine found every processor
// blocked — returns the
// structured DeadlockError report itself rather than P redundant
// AbortError symptoms.
func joinRunErrors(m *machine.Machine, errs []error, waitErr error) error {
	anyNode := false
	for _, err := range errs {
		if err != nil {
			anyNode = true
			break
		}
	}
	var dl *machine.DeadlockError
	if errors.As(waitErr, &dl) && !anyNode {
		return dl
	}
	// a pure external cancellation likewise returns the context error
	// itself (the per-processor AbortErrors are symptoms, not causes)
	if !anyNode && (errors.Is(waitErr, context.Canceled) || errors.Is(waitErr, context.DeadlineExceeded)) {
		return waitErr
	}
	var all []error
	for pid, err := range errs {
		if err != nil {
			all = append(all, &NodeError{PID: pid, Err: err})
			continue
		}
		if perr := m.ProcErr(pid); perr != nil {
			all = append(all, perr)
		}
	}
	if joined := errors.Join(all...); joined != nil {
		return joined
	}
	return waitErr
}

// RunSequential runs a plan lowered for one processor as the reference
// run of an original program: no distribution, no faults, one virtual
// microsecond per flop and no communication cost.
func (pl *Plan) RunSequential(ctx context.Context, opts Options) (*RunResult, error) {
	opts.Faults = nil
	return pl.Run(ctx, machine.Config{P: 1, FlopCost: 1}, opts)
}

// assemble merges the processors' shares: each element is taken from its
// owner under the array's final distribution.
func assemble(res *RunResult, names []string, mains [][]*Array) {
	for i, arr0 := range mains[0] {
		if arr0 == nil {
			continue
		}
		name := names[i]
		out := make([]float64, arr0.size(nil))
		res.Arrays[name] = out
		dist := arr0.Dist
		if dist == nil || dist.IsReplicated() || len(mains) == 1 || len(dist.Sizes) != len(arr0.Lo) {
			copy(out, arr0.Data)
			continue
		}
		dim := dist.DistDim()
		for q, m := range mains {
			arr := m[i]
			res.siteBufs += len(arr.bufs)
			own := newWindow(dist, q, arr0.Lo[dim], arr0.Hi[dim])
			arr.runs(&own, func(full, local, n int) { copy(out[full:full+n], arr.Data[local:]) })
		}
	}
}
