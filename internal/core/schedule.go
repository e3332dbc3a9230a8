package core

// Phase 3 (interprocedural code generation) runs as a DAG schedule over
// the ACG: each procedure is one task whose dependencies are its
// distinct callees, so the reverse-topological waves of the paper's
// single-pass compilation become parallel waves — procedures with no
// unresolved callee summaries compile concurrently on a worker pool,
// each reading the outputs of its callees, whose tasks the schedule
// completed before it started. With Jobs <= 1 the schedule degenerates
// to the sequential reverse-topological walk, and both modes commit
// results in reverse-topological order, so reports, remarks and
// generated programs are byte-identical regardless of the worker count.

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"fortd/internal/acg"
	"fortd/internal/ast"
	"fortd/internal/codegen"
	"fortd/internal/comm"
	"fortd/internal/decomp"
	"fortd/internal/depend"
	"fortd/internal/explain"
	"fortd/internal/livedecomp"
	"fortd/internal/overlap"
	"fortd/internal/partition"
	"fortd/internal/sideeffect"
	"fortd/internal/summarycache"
	"fortd/internal/symconst"
)

// procOut is one procedure's phase-3 task output: its cache entry —
// the cache's shared one on a hit, a fresh one stored on success after
// a miss — plus what an entry does not keep. Tasks only write their own
// procOut; all shared state is committed sequentially afterwards.
type procOut struct {
	*summarycache.Entry
	err     error
	hit     bool
	iface   string
	shash   string   // summary hash callers fold into their cache keys
	effects []string // scalarEffects of the procedure, part of iface
}

// passCtx carries the whole-program analyses phase 3 reads. Everything
// here is either immutable during phase 3 or internally synchronized.
type passCtx struct {
	ctx      context.Context
	c        *Compilation
	opts     Options
	p        int
	exOn     bool
	sections map[string]*comm.SectionSummary
	locals   map[string]*summarycache.Local
	consts   symconst.Result
	fx       *sideeffect.Analysis
	killTest func(site *acg.CallSite, arr string) bool
	cache    *summarycache.Cache
	// outs holds the task outputs, indexed like the schedule's order and
	// found by name through idx. A task reads only its callees' outputs,
	// and every callee's is written before the task starts (see
	// compileAll), so the reads need no lock.
	outs []*procOut
	idx  map[string]int
}

// callee returns the output of a completed callee task.
func (pc *passCtx) callee(name string) *procOut { return pc.outs[pc.idx[name]] }

// calleeNames returns n's distinct callees, sorted.
func calleeNames(n *acg.Node) []string {
	seen := map[string]bool{}
	var out []string
	for _, site := range n.Calls {
		name := site.Callee.Name()
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// compileOne runs one procedure's phase-3 task: a cache probe followed,
// on a miss, by the full analysis and code-generation pass. A cancelled
// context fails the task with ctx.Err() before any work (or cache
// counter update) happens, so cancellation is observed within one task
// boundary and the shared cache never sees a partial store.
func (pc *passCtx) compileOne(n *acg.Node) *procOut {
	out := &procOut{effects: scalarEffects(pc.fx, n.Proc)}
	if err := pc.ctx.Err(); err != nil {
		out.Entry, out.err = &summarycache.Entry{Proc: n.Name()}, err
		return out
	}
	var key string
	if pc.cache.Enabled() {
		key = pc.procKey(n)
		out.Entry = pc.cache.Get(key)
		out.hit = out.Entry != nil
	}
	if !out.hit {
		out.Entry = &summarycache.Entry{Key: key, Proc: n.Name()}
		pc.fresh(n, out)
	}
	if out.err == nil {
		out.iface = interfaceString(out.PartDelayed, out.CommDelayed, out.DecompSum, out.effects)
		out.shash = pc.summaryHash(out)
	}
	return out
}

// fresh compiles one procedure from scratch — the body of the paper's
// single-pass reverse-topological loop, with every shared-state write
// redirected into out. Remarks go to a task-local collector merged at
// commit time, so their final order is independent of task scheduling.
func (pc *passCtx) fresh(n *acg.Node, out *procOut) {
	proc := n.Proc
	c := pc.c
	tr := pc.opts.Trace
	var tex *explain.Collector
	if pc.exOn {
		tex = explain.New()
	}
	defer func() { out.Remarks = tex.Remarks() }()
	endProc := tr.Phase("codegen " + proc.Name)
	defer endProc()

	// the procedure's PARAMETER constants plus interprocedurally
	// propagated constant formals
	env := pc.consts.Env(proc.Name)
	ix := pc.locals[proc.Name].Index
	dists, distOf, entry := c.procDists(proc, ix, env, tex)
	if proc.IsMain {
		out.MainDists = dists
	}
	if out.err = checkIntegerSubscripts(proc, ix, distOf); out.err != nil {
		return
	}
	if out.err = checkDistributeUnderIf(proc, ix); out.err != nil {
		return
	}

	runtimeProc := pc.opts.Strategy == codegen.StrategyRuntime ||
		len(c.Reach.RuntimeResolution[proc.Name]) > 0
	if runtimeProc {
		if tex.Enabled() {
			reason := "the run-time resolution baseline strategy is selected"
			if vars := c.Reach.RuntimeResolution[proc.Name]; len(vars) > 0 {
				reason = fmt.Sprintf("multiple decompositions reach %v and cloning did not separate them", vars)
			}
			tex.Add(explain.Remark{
				Kind: explain.Note, Pass: "core", Proc: proc.Name, Name: "runtime-resolution",
				Msg: fmt.Sprintf("%s compiled with run-time resolution (per-element ownership tests, Figure 3): %s",
					proc.Name, reason),
			})
		}
		entryDists := map[string]*decomp.Dist{}
		for arr, d := range entry {
			if dist := mkDistFor(n, arr, d, env, pc.p); dist != nil {
				entryDists[arr] = dist
			}
		}
		body, res := codegen.GenerateRuntime(proc, ix, distOf, entryDists)
		out.Result = *res
		out.Unit = withBody(proc, body)
		out.PartDelayed = map[string]*partition.Constraint{}
		out.DecompSum = &livedecomp.Summary{
			Use: map[string]bool{}, Kill: map[string]bool{},
			Before: map[string]decomp.Decomp{}, After: map[string]decomp.Decomp{},
			Final: map[string]decomp.Decomp{},
		}
		out.Runtime = true
		return
	}

	immediate := pc.opts.Strategy == codegen.StrategyImmediate
	delayedConsOf := func(name string) map[string]*partition.Constraint {
		if immediate {
			return nil
		}
		return pc.callee(name).PartDelayed
	}
	delayedCommOf := func(name string) []*comm.Delayed {
		if immediate {
			return nil
		}
		return pc.callee(name).CommDelayed
	}

	// §6.4: Fortran D disallows dynamic data decomposition for
	// aliased variables — reject calls that pass the same array to
	// two formals when the callee remaps either of them
	sums := map[string]*livedecomp.Summary{}
	for _, site := range n.Calls {
		sums[site.Callee.Name()] = pc.callee(site.Callee.Name()).DecompSum
	}
	if err := checkAliasRestriction(n, sums); err != nil {
		if tex.Enabled() {
			tex.Add(explain.Remark{
				Kind: explain.Missed, Pass: "core", Proc: proc.Name, Name: "alias-restriction",
				Msg: err.Error(),
			})
		}
		out.err = err
		return
	}

	remaps, decompSum := livedecomp.Analyze(proc, ix, n, entry, sums, pc.killTest, pc.opts.RemapOpt, tex)
	// no message crosses a remap of its array, which drops it
	var remapped comm.RemapsAt
	if remaps.Count() > 0 || remaps.InCall != nil {
		remapped = remaps.RemapsAt
	}

	deps := depend.Analyze(ix, env)
	analyze := func(shared []string) (*partition.Plan, *comm.Result, error) {
		plan := partition.Compute(proc, ix, n, distOf, delayedConsOf, pc.fx, shared, env)
		if immediate {
			plan.DropDelays("immediate instantiation baseline: delayed constraints are forced local (Figure 12)")
		}
		commRes, err := comm.Analyze(proc, n, plan, deps, distOf, delayedCommOf, pc.sections, pc.fx, remapped, env)
		if immediate {
			for _, acc := range commRes.Accesses {
				acc.Delay = false
			}
			commRes.Delayed = nil
		}
		return plan, commRes, err
	}
	plan, commRes, err := analyze(nil)
	if err != nil {
		out.err = err
		return
	}
	// every processor takes part in a broadcast instantiated from a
	// callee, so none may have skipped the scalar that selects its root
	var roots []string
	for _, acc := range commRes.Accesses {
		if acc.Site != nil && plan.Private(acc.PointVar) {
			roots = append(roots, acc.PointVar)
		}
	}
	if roots != nil {
		plan, commRes, _ = analyze(roots) // the calls, hence any error, are those analyze(nil) saw
	}
	// communication placed inside a loop requires every processor
	// to execute all its iterations: drop those reductions; and a
	// message sent anywhere in the procedure requires every processor
	// to make the call: keep no partition delayed to callers. A
	// pipelined shift goes around its loop, which stays reduced; a
	// callee's message at its call is inside every loop around it
	for _, acc := range commRes.Accesses {
		if !acc.Delay && !acc.Pipelined {
			plan.DropLoopReduction(acc.AtLoop)
			if acc.AtCall() {
				for _, l := range acc.Nest {
					plan.DropLoopReduction(l)
				}
			}
			plan.DropDelays(partition.WhyCommInCallee)
		}
	}

	partition.Explain(tex, proc.Name, plan, env)

	// the overlaps this procedure uses: shifts extend the block boundary
	var uses []overlap.Use
	for _, acc := range commRes.Accesses {
		if acc.Kind != comm.KShift || acc.Delay || acc.Site != nil {
			continue
		}
		u := overlap.Use{Array: acc.Array, Dim: acc.DistDim}
		if acc.Shift > 0 {
			u.Hi = acc.Shift
		} else {
			u.Lo = -acc.Shift
		}
		uses = append(uses, u)
	}

	body, gen, err := codegen.Generate(&codegen.Input{
		Proc: proc, Plan: plan, Comm: commRes, Remaps: remaps,
		DistOf: distOf, Env: env, P: pc.p,
	})
	if err != nil {
		out.err = fmt.Errorf("%s: %v", proc.Name, err)
		return
	}
	out.Result = *gen
	out.Unit = withBody(proc, body)
	comm.Explain(tex, proc.Name, commRes) // after codegen, which decides the receivers
	c.Overlaps.Explain(tex, proc.Name, uses)

	out.PartDelayed = plan.Delayed
	out.CommDelayed = commRes.Delayed
	out.DecompSum = decompSum
}

// withBody is proc's header — name, parameters, symbol table — over a
// generated body.
func withBody(proc *ast.Procedure, body []ast.Stmt) *ast.Procedure {
	u := *proc
	u.Body = body
	return &u
}

// compileAll schedules every procedure of order (reverse topological:
// callees first) across jobs workers and returns the per-procedure
// outputs, indexed like order. On failure, outputs downstream of the
// failed task may be nil.
func compileAll(pc *passCtx, order []*acg.Node, jobs int) []*procOut {
	n := len(order)
	pc.outs, pc.idx = make([]*procOut, n), make(map[string]int, n)
	for i, nd := range order {
		pc.idx[nd.Name()] = i
	}
	outs := pc.outs
	if jobs > n {
		jobs = n
	}
	if jobs <= 1 || n == 0 {
		// outs[i] is written before the next task starts
		for i, nd := range order {
			if outs[i] = pc.compileOne(nd); outs[i].err != nil {
				break
			}
		}
		return outs
	}

	// dependency counts over distinct callees; callees always precede
	// callers in reverse topological order
	deg := make([]int, n)
	dependents := make([][]int, n)
	for i, nd := range order {
		for _, callee := range calleeNames(nd) {
			j := pc.idx[callee]
			deg[i]++
			dependents[j] = append(dependents[j], i)
		}
	}

	ready := make(chan int, n)
	var (
		mu          sync.Mutex
		unscheduled = n
		inflight    int
		failed      bool
	)
	mu.Lock()
	for i := range order {
		if deg[i] == 0 {
			unscheduled--
			inflight++
			ready <- i
		}
	}
	if inflight == 0 {
		close(ready)
	}
	mu.Unlock()

	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ready {
				out := pc.compileOne(order[i])
				// outs[i] is written under mu before a dependent is sent
				// on ready, which orders it before the dependent's reads
				mu.Lock()
				outs[i] = out
				inflight--
				if out.err != nil {
					failed = true
				}
				if !failed {
					for _, d := range dependents[i] {
						deg[d]--
						if deg[d] == 0 {
							unscheduled--
							inflight++
							ready <- d
						}
					}
				}
				if inflight == 0 && (unscheduled == 0 || failed) {
					close(ready)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs
}

// Emitted counter names for the summary cache.
const (
	counterCacheHits   = "summary-cache-hits"
	counterCacheMisses = "summary-cache-misses"
)

// checkIntegerSubscripts rejects a distributed-dimension subscript that
// reads a REAL scalar: the executor rounds a subscript to an element, but
// the guards, broadcast roots and run-time resolution tests derived from
// it divide, and in floating point name another processor.
func checkIntegerSubscripts(proc *ast.Procedure, ix *ast.Index, distOf partition.DistOf) (err error) {
	for k, site := range ix.Stmts {
		for _, ref := range ix.RefsOf(k) {
			dist, _ := distOf(ref.Name, site.Stmt)
			if dist == nil || dist.IsReplicated() || dist.DistDim() >= len(ref.Subs) {
				continue
			}
			ast.WalkExpr(ref.Subs[dist.DistDim()], func(e ast.Expr) {
				id, _ := e.(*ast.Ident)
				if id == nil || err != nil {
					return
				}
				if sym := proc.Symbols.Lookup(id.Name); sym != nil && sym.Kind == ast.SymScalar && sym.Type != ast.TypeInteger {
					err = fmt.Errorf("core: %s line %d: subscript %d of the distributed array %s reads the %s scalar %s: which processor owns the element is computed in integers (declare it INTEGER)",
						proc.Name, site.Stmt.Pos().Line, dist.DistDim()+1, ref.Name, sym.Type, id.Name)
				}
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// checkDistributeUnderIf rejects a DISTRIBUTE inside an IF: the
// reaching decompositions and the remap placement follow one layout per
// array through a branch, so after the IF every use would be compiled
// for the branch's layout whichever edge ran.
func checkDistributeUnderIf(proc *ast.Procedure, ix *ast.Index) error {
	for k, site := range ix.Stmts {
		if _, ok := site.Stmt.(*ast.If); !ok {
			continue
		}
		for _, in := range ix.Stmts[k+1 : site.End] {
			if d, ok := in.Stmt.(*ast.Distribute); ok {
				return fmt.Errorf("core: %s line %d: DISTRIBUTE %s under the IF at line %d: a decomposition only one branch changes is not supported",
					proc.Name, d.Pos().Line, d.Target, site.Stmt.Pos().Line)
			}
		}
	}
	return nil
}
