// Package core is the Fortran D compiler driver: it wires the analyses
// into the 3-phase ParaScope structure (§4) — local analysis,
// interprocedural propagation, and interprocedural code generation in
// reverse topological order, one pass per procedure (§5) — and produces
// the SPMD program the node interpreter executes.
package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"fortd/internal/acg"
	"fortd/internal/ast"
	"fortd/internal/codegen"
	"fortd/internal/comm"
	"fortd/internal/decomp"
	"fortd/internal/explain"
	"fortd/internal/livedecomp"
	"fortd/internal/overlap"
	"fortd/internal/parser"
	"fortd/internal/partition"
	"fortd/internal/reach"
	"fortd/internal/sched"
	"fortd/internal/sideeffect"
	"fortd/internal/summarycache"
	"fortd/internal/symconst"
	"fortd/internal/trace"
)

// Options configures a compilation.
type Options struct {
	// P is the number of processors to compile for (0: read the main
	// program's n$proc PARAMETER, defaulting to 4).
	P int
	// Strategy selects interprocedural compilation or one of the
	// paper's baselines.
	Strategy codegen.Strategy
	// RemapOpt sets the dynamic-decomposition optimization level, the
	// ladder of Figure 16.
	RemapOpt livedecomp.Level
	// CloneLimit bounds procedure cloning (Figure 8); 0 disables cloning
	// and forces run-time resolution on decomposition conflicts.
	CloneLimit int
	// Trace, when non-nil, collects per-phase compile spans and code
	// generation counters.
	Trace *trace.Tracer
	// Explain, when non-nil, collects optimization remarks from every
	// compiler pass (nil = disabled, allocation-free).
	Explain *explain.Collector
	// Jobs is the number of concurrent workers for the per-procedure
	// code-generation phase, scheduled in topological waves over the
	// call graph (0 or 1: sequential). Output is byte-identical
	// regardless of Jobs.
	Jobs int
	// Cache, when non-nil, memoizes per-procedure compilation results
	// across compilations, keyed by a content hash of each procedure's
	// source and the interprocedural inputs it consumed. Re-compiling a
	// program after editing one procedure re-analyzes only that
	// procedure and the callers whose consumed summaries changed (the
	// paper's §8 recompilation analysis, run as a cache).
	Cache *summarycache.Cache
	// Deadline bounds the compilation's wall-clock time (0: none).
	// CompileContext derives a timeout context from it; a compilation
	// that exceeds it returns context.DeadlineExceeded.
	Deadline time.Duration
	// Overlap enables the computation/communication overlap schedule
	// (internal/sched): blocking halo exchanges are split into
	// post-early/wait-late pairs with the interior of the following loop
	// hoisted between them, and pipelined broadcasts are posted above
	// independent predecessors. The generated listing changes
	// (postrecv/waitrecv statements and peeled boundary loops appear)
	// but the computed values do not. The pass replaces the units it
	// changes rather than writing them, so cache entries hold the
	// blocking form, one cache serves both modes and it keeps each
	// unit's schedule. DefaultOptions enables it.
	Overlap bool
}

// DefaultOptions enables everything the paper's compiler does.
func DefaultOptions() Options {
	return Options{
		Strategy:   codegen.StrategyInterproc,
		RemapOpt:   livedecomp.OptKills,
		CloneLimit: 64,
		Overlap:    true,
	}
}

// WithOverlap returns a copy of o with the overlap schedule switched
// on or off. It exists for call-site chaining:
//
//	fortd.DefaultOptions().WithOverlap(false)
func (o Options) WithOverlap(on bool) Options {
	o.Overlap = on
	return o
}

// Validate reports the first invalid field. CompileContext calls it, so
// malformed options fail loudly instead of being silently defaulted.
func (o Options) Validate() error {
	if o.P < 0 {
		return fmt.Errorf("fortd: Options.P = %d, must be >= 0 (0 reads n$proc)", o.P)
	}
	switch o.Strategy {
	case codegen.StrategyInterproc, codegen.StrategyRuntime, codegen.StrategyImmediate:
	default:
		return fmt.Errorf("fortd: unknown Options.Strategy %d", o.Strategy)
	}
	switch o.RemapOpt {
	case livedecomp.OptNone, livedecomp.OptLive, livedecomp.OptHoist, livedecomp.OptKills:
	default:
		return fmt.Errorf("fortd: unknown Options.RemapOpt %d", o.RemapOpt)
	}
	if o.CloneLimit < 0 {
		return fmt.Errorf("fortd: Options.CloneLimit = %d, must be >= 0 (0 disables cloning)", o.CloneLimit)
	}
	if o.Jobs < 0 {
		return fmt.Errorf("fortd: Options.Jobs = %d, must be >= 0 (0 or 1 compiles sequentially)", o.Jobs)
	}
	if o.Deadline < 0 {
		return fmt.Errorf("fortd: Options.Deadline = %v, must be >= 0 (0 disables the deadline)", o.Deadline)
	}
	return nil
}

// Report summarizes what code generation did: messages and ownership
// guards inserted, loop bounds reduced to local iterations, dynamic
// remaps placed, and procedures cloned, in total and per procedure.
type Report struct {
	Messages     int
	Guards       int
	LoopsReduced int
	Remaps       int
	Cloned       int
	RuntimeProcs []string
	PerProc      map[string]*codegen.Result
}

// String renders the counters on one line, naming each procedure left
// to run-time resolution.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "messages=%d guards=%d loops-reduced=%d remaps=%d cloned=%d",
		r.Messages, r.Guards, r.LoopsReduced, r.Remaps, r.Cloned)
	if len(r.RuntimeProcs) > 0 {
		fmt.Fprintf(&b, " runtime-resolution=%v", r.RuntimeProcs)
	}
	return b.String()
}

// DedupRuntimeProcs maps clone names back to their original procedure
// and returns the sorted, deduplicated list: a procedure cloned into
// foo$1, foo$2 that still needs run-time resolution is reported once,
// as foo.
func DedupRuntimeProcs(names []string, clonedFrom map[string]string) []string {
	seen := map[string]bool{}
	var out []string
	for _, name := range names {
		if orig, ok := clonedFrom[name]; ok {
			name = orig
		}
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Compilation is the result of compiling a Fortran D program.
type Compilation struct {
	// Program is the generated SPMD program.
	Program *ast.Program
	// Source is the input program (for reference runs). Program shares
	// with it every statement code generation emits unchanged.
	Source *ast.Program
	// P is the compiled-for processor count.
	P int
	// MainDists gives the initial distribution of the main program's
	// arrays (for the node interpreter).
	MainDists map[string]*decomp.Dist
	// Reach is the reaching-decomposition solution.
	Reach *reach.Result
	// Overlaps is the overlap analysis.
	Overlaps *overlap.Analysis
	Report   Report
	Options  Options
	// Interfaces holds, per procedure, a canonical rendering of the
	// summary information it exposes to callers (scalar effects,
	// delayed iteration sets, delayed communication, decomposition
	// summary sets) — the interface whose change re-analyzes the
	// callers (interfaceString; cache.go hashes it into their keys).
	Interfaces map[string]string
	// CacheHits and CacheMisses list, sorted, the procedures served
	// from / freshly compiled into Options.Cache (nil without a cache).
	CacheHits   []string
	CacheMisses []string
}

// Compile parses and compiles Fortran D source text.
func Compile(src string, opts Options) (*Compilation, error) {
	return CompileContext(context.Background(), src, opts)
}

// CompileContext is Compile under a cancellation context: when ctx is
// cancelled the compilation stops at the next phase boundary or
// phase-3 task boundary and returns ctx.Err(). A cancelled compilation
// never stores partial results into Options.Cache. It validates opts
// first, and Options.Deadline, when set, bounds the compilation's
// wall-clock time through the same mechanism.
func CompileContext(ctx context.Context, src string, opts Options) (*Compilation, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Deadline)
		defer cancel()
	}
	endParse := opts.Trace.Phase("parse")
	prog, err := parser.ParseMemo(src, opts.Cache) // a warm compile parses only edited units
	endParse()
	if err != nil {
		return nil, err
	}
	return CompileProgramContext(ctx, prog, opts)
}

// CompileProgram compiles an already-parsed program. prog is not
// modified and becomes Compilation.Source; the caller must not modify it
// afterwards either, since the generated program and the summary cache
// share its statements.
func CompileProgram(prog *ast.Program, opts Options) (*Compilation, error) {
	return CompileProgramContext(context.Background(), prog, opts)
}

// CompileProgramContext is CompileProgram under a cancellation context
// (see CompileContext).
func CompileProgramContext(ctx context.Context, prog *ast.Program, opts Options) (*Compilation, error) {
	tr := opts.Trace
	ex := opts.Explain
	if ex.Enabled() {
		ex.Add(explain.Remark{
			Kind: explain.Note, Pass: "core", Name: "strategy",
			Msg: "compilation strategy: " + opts.Strategy.String(),
		})
	}
	// cloning replaces units in the graph's program, which therefore has
	// a unit list of its own
	endACG := tr.Phase("acg-build")
	g, err := acg.Build(ast.NewProgram(slices.Clone(prog.Units)))
	endACG()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phase 1+2: reaching decompositions with cloning.
	endReach := tr.Phase("reaching-decompositions")
	reachRes, err := reach.Analyze(g, reach.Options{CloneLimit: opts.CloneLimit, Explain: opts.Explain})
	endReach()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g = reachRes.Graph

	p := opts.P
	if p == 0 {
		p = nprocOf(prog)
	}
	if p < 1 {
		return nil, fmt.Errorf("core: invalid processor count %d", p)
	}

	c := &Compilation{
		Source:     prog,
		P:          p,
		MainDists:  map[string]*decomp.Dist{},
		Reach:      reachRes,
		Options:    opts,
		Report:     Report{PerProc: map[string]*codegen.Result{}},
		Interfaces: map[string]string{},
	}
	c.Report.Cloned = len(reachRes.ClonedFrom)
	{
		var names []string
		for name := range reachRes.RuntimeResolution {
			names = append(names, name)
		}
		c.Report.RuntimeProcs = DedupRuntimeProcs(names, reachRes.ClonedFrom)
	}

	// the phases below propagate each unit's local facts (§4)
	endLocal := tr.Phase("local-analysis")
	locals := make(map[string]*summarycache.Local, len(g.Program.Units))
	analyzed := 0
	for _, u := range g.Program.Units {
		l, fresh := opts.Cache.Local(u)
		if locals[u.Name] = l; fresh {
			analyzed++
		}
	}
	endLocal()
	tr.Counter("local-units-analyzed", int64(analyzed))
	endConsts := tr.Phase("symbolic-constants")
	fx := sideeffect.Compute(g, func(u *ast.Procedure) *sideeffect.Summary { return locals[u.Name].Effects })
	consts := symconst.Compute(g, fx)
	endConsts()
	endSections := tr.Phase("section-analysis")
	sections := comm.ComputeSections(g, fx, func(u *ast.Procedure) *comm.SectionSummary { return locals[u.Name].Sections })
	endSections()
	endOverlap := tr.Phase("overlap-estimates")
	c.Overlaps = overlap.ComputeEstimates(g, func(u *ast.Procedure) map[string]*overlap.Offsets { return locals[u.Name].Offsets })
	endOverlap()
	killTest := func(site *acg.CallSite, arr string) bool {
		return livedecomp.KillsArray(site, arr, sections)
	}

	// Phase 3: interprocedural code generation, one pass per procedure
	// in reverse topological order (callees first), scheduled over a
	// worker pool when opts.Jobs > 1. Tasks write only their own
	// procOut; everything below commits those outputs sequentially in
	// reverse-topological order, so reports, remarks and generated
	// programs are byte-identical regardless of the worker count.
	jobs := opts.Jobs
	if jobs < 1 {
		jobs = 1
	}
	pcx := &passCtx{
		ctx: ctx, c: c, opts: opts, p: p, exOn: ex.Enabled(),
		sections: sections, locals: locals, consts: consts, fx: fx, killTest: killTest,
		cache: opts.Cache,
	}
	order := g.ReverseTopoOrder()
	outs := compileAll(pcx, order, jobs)

	units := make(map[string]*ast.Procedure, len(outs))
	for _, out := range outs {
		if out == nil {
			// never scheduled because an earlier task failed
			continue
		}
		ex.AddAll(out.Remarks)
		if out.err != nil {
			return nil, out.err
		}
		res := out.Result // the report never points into a cache entry
		c.record(out.Proc, &res)
		c.Interfaces[out.Proc] = out.iface
		for arr, d := range out.MainDists {
			c.MainDists[arr] = d
		}
		units[out.Proc] = out.Unit
		if out.hit {
			c.CacheHits = append(c.CacheHits, out.Proc)
		} else if pcx.cache.Enabled() {
			c.CacheMisses = append(c.CacheMisses, out.Proc)
		}
	}
	// every unit of the graph's program is one of its nodes
	generated := make([]*ast.Procedure, len(g.Program.Units))
	for i, u := range g.Program.Units {
		generated[i] = units[u.Name]
	}
	c.Program = ast.NewProgram(generated)
	tr.Counter("messages-inserted", int64(c.Report.Messages))
	tr.Counter("guards-inserted", int64(c.Report.Guards))
	tr.Counter("loops-reduced", int64(c.Report.LoopsReduced))
	tr.Counter("remaps-inserted", int64(c.Report.Remaps))
	tr.Counter("procedures-cloned", int64(c.Report.Cloned))
	if pcx.cache.Enabled() {
		sort.Strings(c.CacheHits)
		sort.Strings(c.CacheMisses)
		tr.Counter(counterCacheHits, int64(len(c.CacheHits)))
		tr.Counter(counterCacheMisses, int64(len(c.CacheMisses)))
		pcx.storeEntries(outs)
	}
	if opts.Overlap {
		endSched := tr.Phase("overlap-schedule")
		overlapped := pcx.schedule(order, outs)
		endSched()
		tr.Counter("comm-overlapped", int64(overlapped))
	}
	return c, nil
}

// schedule runs the overlap pass over c.Program unit by unit in program
// order, taking what the cache keeps for a unit's chain key and first
// tag, and returns the sites transformed.
func (pc *passCtx) schedule(order []*acg.Node, outs []*procOut) (sites int) {
	// a unit's chain key is its cache key and its callees' chain keys:
	// what the pass reads of the program but the tag
	chain := map[string]string{}
	for i := 0; i < len(outs) && pc.cache.Enabled(); i++ {
		keys := []string{outs[i].Key}
		for _, callee := range calleeNames(order[i]) {
			keys = append(keys, chain[callee])
		}
		chain[outs[i].Proc] = summarycache.Hash(keys...)
	}
	p, units, ran := &sched.Pass{Prog: pc.c.Program}, slices.Clone(pc.c.Program.Units), 0
	for i, u := range units {
		tag := p.Tag
		s := pc.cache.Schedule(chain[u.Name], tag, func() *summarycache.Scheduled {
			ran++
			var ex *explain.Collector
			if pc.exOn {
				ex = explain.New()
			}
			unit, n := p.Unit(u, ex)
			return &summarycache.Scheduled{Unit: unit, Remarks: ex.Remarks(), Sites: n, Tags: p.Tag - tag}
		})
		if p.Tag, sites = tag+s.Tags, sites+s.Sites; s.Unit != nil {
			units[i] = s.Unit
		}
		pc.opts.Explain.AddAll(s.Remarks)
	}
	pc.c.Program = ast.NewProgram(units)
	pc.opts.Trace.Counter("units-scheduled", int64(ran))
	return sites
}

func (c *Compilation) record(name string, res *codegen.Result) {
	c.Report.PerProc[name] = res
	c.Report.Messages += res.MessagesInserted
	c.Report.Guards += res.GuardsInserted
	c.Report.LoopsReduced += res.LoopsReduced
	c.Report.Remaps += res.RemapsInserted
}

// procDists derives each array's distribution at its first use in proc,
// distOf, which resolves an array at a statement to the distribution
// reaching it there (so dynamic redistribution within a procedure
// resolves per program point), and the entry decompositions for
// livedecomp. Remarks go to ex, the calling task's collector.
func (c *Compilation) procDists(proc *ast.Procedure, env ast.Env, ex *explain.Collector) (map[string]*decomp.Dist, partition.DistOf, map[string]decomp.Decomp) {
	reaching := c.Reach.Reaching[proc.Name]
	n := c.Reach.Graph.Nodes[proc.Name]
	st := reach.NewState(proc, reaching)
	firstUse := map[string]decomp.Decomp{}
	atStmt := map[ast.Stmt]map[string]*decomp.Dist{}
	// use records the decomposition of name reaching s. The first one
	// seen is the array's; a statement keeps a Dist of its own only
	// where its decomposition differs, since distOf falls back to the
	// array's.
	use := func(s ast.Stmt, name string, cur *reach.State) {
		d, ok := cur.Lookup(name).Single()
		if !ok {
			return
		}
		first, seen := firstUse[name]
		if !seen {
			firstUse[name] = d
			return
		}
		if first.Equal(d) {
			return
		}
		if dist := mkDistFor(n, name, d, env, c.P); dist != nil {
			m := atStmt[s]
			if m == nil {
				m = map[string]*decomp.Dist{}
				atStmt[s] = m
			}
			m[name] = dist
		}
	}
	st.WalkBody(proc.Body, func(s ast.Stmt, cur *reach.State) {
		for _, e := range ast.StmtExprs(s) {
			collectArrays(e, func(name string) { use(s, name, cur) })
		}
		switch x := s.(type) {
		case *ast.Assign:
			if lhs, ok := x.Lhs.(*ast.ArrayRef); ok {
				use(s, lhs.Name, cur)
			}
		case *ast.Call:
			// whole arrays passed by name
			for _, a := range x.Args {
				if id, ok := a.(*ast.Ident); ok {
					if sym := proc.Symbols.Lookup(id.Name); sym != nil && sym.Kind == ast.SymArray {
						use(s, id.Name, cur)
					}
				}
			}
		}
	})
	// arrays that are declared and distributed but never referenced in
	// this procedure still need a descriptor (e.g. main programs whose
	// only use is passing the array onward), and so do the COMMON arrays
	// that pass through it undeclared: st is the walk's final state
	for name, set := range st.Arrays() {
		if _, seen := firstUse[name]; !seen {
			if d, ok := set.Single(); ok {
				firstUse[name] = d
			}
		}
	}
	dists := map[string]*decomp.Dist{}
	for name, d := range firstUse {
		if dist := mkDistFor(n, name, d, env, c.P); dist != nil {
			dists[name] = dist
		} else if !d.IsReplicated() {
			if ex.Enabled() {
				why := "dimension bounds are not compile-time constants or the decomposition does not fit"
				if d.Validate() != nil {
					why = "two distributed dimensions (deviation 4)"
				}
				ex.Add(explain.Remark{
					Kind: explain.Missed, Pass: "core", Proc: proc.Name, Name: "distribute",
					Msg: fmt.Sprintf("no distribution descriptor built for %s %s: %s — the array stays replicated", name, d.Key(), why),
				})
			}
		}
	}
	// entry decomps for livedecomp: reaching singles for inherited vars
	entry := map[string]decomp.Decomp{}
	for v, set := range reaching {
		if d, ok := set.Single(); ok {
			entry[v] = d
		}
	}
	distOf := func(array string, at ast.Stmt) (*decomp.Dist, bool) {
		if d, ok := atStmt[at][array]; ok {
			return d, true
		}
		d, ok := dists[array]
		return d, ok
	}
	return dists, distOf, entry
}

// mkDistFor instantiates a decomposition against an array's declared
// shape and the machine size, returning nil when bounds are not
// compile-time constants.
func mkDistFor(n *acg.Node, name string, d decomp.Decomp, env ast.Env, p int) *decomp.Dist {
	sym := n.Lookup(name)
	if sym == nil || sym.Kind != ast.SymArray {
		return nil
	}
	sizes := make([]int, len(sym.Dims))
	for i, dim := range sym.Dims {
		lo, okLo := ast.EvalInt(dim.Lo, env)
		hi, okHi := ast.EvalInt(dim.Hi, env)
		if !okLo || !okHi {
			return nil
		}
		sizes[i] = hi - lo + 1
	}
	if len(d.Specs) != 0 && len(d.Specs) != len(sizes) {
		return nil
	}
	dist, err := decomp.NewDist(d, sizes, p)
	if err != nil {
		return nil
	}
	return dist
}

func collectArrays(e ast.Expr, fn func(string)) {
	ast.WalkExpr(e, func(e ast.Expr) {
		if x, ok := e.(*ast.ArrayRef); ok {
			fn(x.Name)
		}
	})
}

// checkAliasRestriction enforces §6.4: when a call site binds the same
// caller array to multiple formals, the callee (or its descendants)
// must not dynamically remap any of them — interprocedural live
// decomposition analysis is Co-NP-complete under aliasing, so the
// language forbids the combination.
func checkAliasRestriction(n *acg.Node, sums map[string]*livedecomp.Summary) error {
	for _, site := range n.Calls {
		sum := sums[site.Callee.Name()]
		if sum == nil || len(sum.Kill) == 0 {
			continue
		}
		byActual := map[string][]string{}
		for _, b := range site.Bindings {
			if b.ActualName == "" {
				continue
			}
			sym := n.Proc.Symbols.Lookup(b.ActualName)
			if sym == nil || sym.Kind != ast.SymArray {
				continue
			}
			byActual[b.ActualName] = append(byActual[b.ActualName], b.Formal)
		}
		for actual, formals := range byActual {
			if len(formals) < 2 {
				continue
			}
			for _, formal := range formals {
				if sum.Kill[formal] {
					return fmt.Errorf(
						"core: %s passes %s to aliased formals %v of %s, which dynamically remaps %s (forbidden, §6.4)",
						n.Name(), actual, formals, site.Callee.Name(), formal)
				}
			}
		}
	}
	return nil
}

// nprocOf reads the main program's n$proc PARAMETER.
func nprocOf(prog *ast.Program) int {
	main := prog.Main()
	if main == nil {
		return 4
	}
	if s := main.Symbols.Lookup("n$proc"); s != nil && s.Kind == ast.SymConstant {
		return s.ConstValue
	}
	return 4
}
