package comm

import (
	"fmt"

	"fortd/internal/acg"
	"fortd/internal/ast"
	"fortd/internal/decomp"
	"fortd/internal/depend"
	"fortd/internal/partition"
	"fortd/internal/rsd"
	"fortd/internal/sideeffect"
)

// Kind classifies the communication pattern of a nonlocal reference.
type Kind int

const (
	// KLocal: the reference is always local — no communication.
	KLocal Kind = iota
	// KShift: the reference is offset from the owned region along the
	// distributed dimension by a constant — nearest-neighbor exchange,
	// vectorizable into one boundary message (message vectorization).
	KShift
	// KPoint: the distributed-dimension subscript is fixed at the
	// placement point — a single owner broadcasts the section.
	KPoint
	// KGather: the reference sweeps the distributed dimension under the
	// placement point — every owner contributes (allgather).
	KGather
)

func (k Kind) String() string {
	switch k {
	case KLocal:
		return "local"
	case KShift:
		return "shift"
	case KPoint:
		return "broadcast"
	case KGather:
		return "allgather"
	}
	return "?"
}

// Access is the communication decision for one right-hand-side array
// reference.
type Access struct {
	Ref     *ast.ArrayRef
	Stmt    ast.Stmt
	Nest    []*ast.Do
	Array   string
	Dist    *decomp.Dist
	DistDim int
	Kind    Kind
	Shift   int      // KShift: subscript offset relative to the partition variable
	Point   ast.Expr // KPoint: the distributed-dimension subscript
	// Section is the accessed region in global coordinates (symbolic
	// anchors for enclosing-procedure variables).
	Section *rsd.Section
	// Placement: AtLoop non-nil places the message at the top of that
	// local loop's body (executed per iteration); AtLoop nil hoists it
	// before the outermost enclosing loop. Delay passes it to callers.
	AtLoop *ast.Do
	Delay  bool
	// Why records the reason for the placement (static strings only, so
	// recording is allocation-free when remarks are disabled).
	Why string
	// Pipelined sends a shift AtLoop carries around that loop instead of
	// through it; NoPipe is why a candidate stays inside (pipeline.go).
	Pipelined bool
	NoPipe    string
	// Against is the distribution of the statement's left-hand side when
	// the reference would be a shift of it but for its block size.
	Against *decomp.Dist
	// NoTo is why codegen gave the broadcast no "to" clause, NoRing why a
	// rotating root's stays a tree (Ring: it is a ring); Widened, a scalar
	// assigned after the placement that Sec widened the section over.
	NoTo, NoRing, Widened string
	Ring                  bool
}

// Delayed is a communication descriptor passed up to callers (delayed
// instantiation, §5.4): the nonlocal index set is recorded but no
// message is generated in this procedure.
type Delayed struct {
	Array    string // formal/common array name in the summarized procedure
	Kind     Kind
	Shift    int
	PointVar string // KPoint: the formal scalar selecting the owner
	PointOff int
	DistKey  string
	DistDim  int
	Section  *rsd.Section
}

func (d *Delayed) String() string {
	return fmt.Sprintf("%s %s %s", d.Kind, d.Section, d.DistKey)
}

// CallComm is the instantiation of a callee's delayed communication at
// one call site of the current procedure.
type CallComm struct {
	Site    *acg.CallSite
	Nest    []*ast.Do // loops around the call, outermost first
	D       *Delayed  // callee-space descriptor
	Array   string    // caller-space array name
	Dist    *decomp.Dist
	Section *rsd.Section // caller-space section (anchors bound where vectorized)
	// Placement: BeforeLoop non-nil hoists the message before that
	// caller loop (vectorized); AtLoop places it at the top of the
	// loop's body; both nil places it immediately before the call.
	BeforeLoop *ast.Do
	AtLoop     *ast.Do
	Delay      bool
	// PointVar in caller space for KPoint.
	PointVar string
	PointOff int
	// Why records the reason for the placement (static strings only).
	Why string
	// Pipelined, NoPipe, NoTo, Ring and NoRing are as for Access.
	Pipelined    bool
	NoPipe       string
	NoTo, NoRing string
	Ring         bool
}

// Result is the communication analysis of one procedure.
type Result struct {
	Accesses  []*Access
	CallComms []*CallComm
	// Delayed is this procedure's own summary for its callers.
	Delayed []*Delayed
}

// DelayedOf returns a compiled callee's delayed communications.
type DelayedOf func(procName string) []*Delayed

// Analyze runs Figure 11 for one procedure: classify nonlocal
// references, choose message placement by dependence level, instantiate
// delayed communication arriving from callees, and collect the
// still-delayed descriptors for this procedure's callers. fx says which
// scalars the procedure may assign, as for ComputeSections.
func Analyze(
	proc *ast.Procedure,
	node *acg.Node,
	plan *partition.Plan,
	deps *depend.Info,
	distOf partition.DistOf,
	delayedOf DelayedOf,
	sections map[string]*SectionSummary,
	fx *sideeffect.Analysis,
	env ast.Env,
) (*Result, error) {
	res := &Result{}
	var err error
	items := map[*ast.Assign]*partition.Item{}
	for _, it := range plan.Items {
		items[it.Stmt] = it
	}

	// --- local references -------------------------------------------------
	// Reads in assignments, IF conditions, loop bounds and call
	// arguments all need their data resolved; only assignments carry a
	// partitioning item (the others execute replicated).
	for _, ref := range deps.Refs {
		if ref.IsWrite {
			continue
		}
		var item *partition.Item
		if asg, ok := ref.Stmt.(*ast.Assign); ok {
			item = items[asg]
		}
		acc := classify(proc, ref, item, distOf, env)
		if acc == nil || acc.Kind == KLocal {
			continue
		}
		place(proc, acc, deps, env)
		res.Accesses = append(res.Accesses, acc)
		if acc.Delay {
			res.Delayed = append(res.Delayed, toDelayed(acc, env))
		}
	}

	// --- delayed communication from callees --------------------------------
	if node != nil {
		var nest []*ast.Do
		var walk func(body []ast.Stmt)
		walk = func(body []ast.Stmt) {
			for _, s := range body {
				switch st := s.(type) {
				case *ast.Do:
					nest = append(nest, st)
					walk(st.Body)
					nest = nest[:len(nest)-1]
				case *ast.If:
					walk(st.Then)
					walk(st.Else)
				case *ast.Call:
					site := node.Site(st)
					if site == nil {
						continue
					}
					for _, d := range delayedOf(st.Name) {
						cc := instantiate(proc, site, d, nest, distOf, sections, assigned(fx, proc), env)
						if cc == nil {
							continue
						}
						if proc.Symbols.Lookup(cc.Array) == nil && err == nil {
							err = passThrough(proc, node, cc, fx, env)
						}
						res.CallComms = append(res.CallComms, cc)
						if cc.Delay {
							res.Delayed = append(res.Delayed, reDelay(cc))
						}
					}
				}
			}
		}
		walk(proc.Body)
	}
	pipeline(proc, res, plan, items, fx, env)
	return res, err
}

// classify determines the communication pattern of one read reference.
func classify(proc *ast.Procedure, ref *depend.Ref, item *partition.Item, distOf partition.DistOf, env ast.Env) *Access {
	dist, ok := distOf(ref.Array, ref.Stmt)
	if !ok || dist == nil || dist.IsReplicated() {
		return nil
	}
	dim := dist.DistDim()
	if dim >= len(ref.Expr.Subs) {
		return nil
	}
	acc := &Access{
		Ref:  ref.Expr,
		Nest: ref.Nest, Array: ref.Array,
		Dist: dist, DistDim: dim,
	}
	acc.Stmt = ref.Stmt
	acc.Section = RefSection(proc, ref.Expr, ref.Nest, env)
	sub := partition.AnalyzeSub(ref.Expr.Subs[dim], env)

	// Same partition variable ⇒ shift pattern, if the two arrays are
	// dealt out alike: the same format in blocks of the same size (two
	// BLOCK arrays of unequal extents are not; Explain says so).
	aligned := item != nil && item.C != nil && item.Sub.Var != "" &&
		sub.OK && sub.Coef == 1 && item.Sub.Coef == 1 && sub.Var == item.Sub.Var &&
		item.C.Dist.Decomp.Equal(dist.Decomp)
	if aligned && !item.C.Dist.SameOwners(dist) {
		aligned, acc.Against = false, item.C.Dist
	}
	if aligned {
		acc.Shift = sub.Off - item.Sub.Off
		if acc.Shift == 0 {
			acc.Kind = KLocal
			return acc
		}
		b := dist.BlockSize()
		if dist.Specs[dim].Kind == ast.DistBlock && abs(acc.Shift) < b {
			acc.Kind = KShift
			return acc
		}
		// shift spanning multiple blocks, or cyclic/block-cyclic shift:
		// degrade to an allgather (correct, more communication)
		acc.Kind = KGather
		return acc
	}

	// Fixed subscript at run time ⇒ broadcast from the owner; sweeping
	// subscript ⇒ allgather. "Fixed" is judged at placement time, so
	// here we look at the variable's defining loop.
	switch {
	case sub.OK && sub.Var == "":
		acc.Kind = KPoint
		acc.Point = ref.Expr.Subs[dim]
	case sub.OK && partition.LoopFor(ref.Nest, sub.Var) != nil:
		// loop-variant distributed subscript, not the partition
		// variable: the owner changes per iteration
		acc.Kind = KPoint
		acc.Point = ref.Expr.Subs[dim]
	case sub.OK && isOuterVar(proc, sub.Var):
		acc.Kind = KPoint
		acc.Point = ref.Expr.Subs[dim]
	default:
		acc.Kind = KGather
	}
	return acc
}

// Placement reasons, recorded on Access.Why / CallComm.Why. They are
// package-level constants so recording them is a pointer store —
// allocation-free whether or not remarks are collected.
const (
	WhyCarriedDep   = "a true dependence is carried at this loop level"
	WhyOwnerVaries  = "the broadcasting owner changes every iteration of this loop"
	WhyFormalRange  = "the nonlocal section ranges over formal parameters only known in the caller"
	WhyCalleeWrites = "the callee's writes overlap the section: the dependence is carried by this loop"
	WhySymbolBounds = "the loop bounds are not compile-time constants, so the section cannot be expanded"
	WhyFormalOwner  = "the broadcasting owner is selected by a formal parameter only known in the caller"
	WhyUndeclared   = "the array is in a COMMON block this procedure does not declare, so only a caller that declares it can name it"
)

// place chooses the message's loop level from dependence information
// (message vectorization: the deepest loop-carried true dependence with
// the reference as sink).
func place(proc *ast.Procedure, acc *Access, deps *depend.Info, env ast.Env) {
	level := deps.DeepestTrueSinkLevel(acc.Ref)
	why := ""
	if level > 0 {
		why = WhyCarriedDep
	}
	// a broadcast whose point subscript varies with a local loop cannot
	// be hoisted above the loop defining that variable
	if acc.Kind == KPoint && acc.Point != nil {
		if v, _, _, ok := depend.LinearSubscript(acc.Point, env); ok && v != "" {
			for i, l := range acc.Nest {
				if l.Var == v && i+1 > level {
					level = i + 1
					why = WhyOwnerVaries
				}
			}
		}
	}
	if level > 0 {
		acc.AtLoop = acc.Nest[level-1]
		acc.Why = why
		return
	}
	// fully vectorized: delay to the caller when the section still
	// references formal scalars (their ranges are only known there)
	if !proc.IsMain && sectionHasFormalAnchor(proc, acc, env) {
		acc.Delay = true
		acc.Why = WhyFormalRange
	}
}

func sectionHasFormalAnchor(proc *ast.Procedure, acc *Access, env ast.Env) bool {
	arrSym := proc.Symbols.Lookup(acc.Array)
	if arrSym != nil && (arrSym.IsFormal || arrSym.Common != "") {
		if acc.Section != nil && acc.Section.Symbolic() {
			return true
		}
		if acc.Kind == KPoint && acc.Point != nil {
			if v, _, _, ok := depend.LinearSubscript(acc.Point, env); ok && v != "" && isOuterVar(proc, v) {
				return true
			}
		}
	}
	return false
}

func isOuterVar(proc *ast.Procedure, v string) bool {
	s := proc.Symbols.Lookup(v)
	return s != nil && (s.IsFormal || s.Common != "")
}

func toDelayed(acc *Access, env ast.Env) *Delayed {
	d := &Delayed{
		Array: acc.Array, Kind: acc.Kind, Shift: acc.Shift,
		DistKey: acc.Dist.Key(), DistDim: acc.DistDim,
		Section: acc.Section,
	}
	if acc.Kind == KPoint && acc.Point != nil {
		if v, _, off, ok := depend.LinearSubscript(acc.Point, env); ok {
			d.PointVar = v
			d.PointOff = off
		}
	}
	return d
}

func reDelay(cc *CallComm) *Delayed {
	return &Delayed{
		Array: cc.Array, Kind: cc.D.Kind, Shift: cc.D.Shift,
		PointVar: cc.PointVar, PointOff: cc.PointOff,
		DistKey: cc.D.DistKey, DistDim: cc.D.DistDim,
		Section: cc.Section,
	}
}

// instantiate translates one delayed communication to a call site and
// decides where to place it: vectorized before a caller loop when no
// true dependence is carried there, inside the loop otherwise, or
// re-delayed to this procedure's own callers.
func instantiate(
	proc *ast.Procedure,
	site *acg.CallSite,
	d *Delayed,
	nest []*ast.Do,
	distOf partition.DistOf,
	sections map[string]*SectionSummary,
	mod sideeffect.Set,
	env ast.Env,
) *CallComm {
	cc := &CallComm{Site: site, Nest: append([]*ast.Do(nil), nest...), D: d, Array: site.CallerName(d.Array)}
	if cc.Array == "" {
		return nil
	}
	dist, ok := distOf(cc.Array, site.Stmt)
	if !ok || dist == nil {
		return nil
	}
	cc.Dist = dist
	vars := siteVars(site)
	cc.Section = callSection(d.Section, site, vars, cc.Array, proc, nest, mod, env)
	cc.PointVar, cc.PointOff = d.PointVar, d.PointOff // a constant point is PointOff alone
	if a, ok := vars[d.PointVar]; ok {
		cc.PointVar = a
	}

	if d.Kind == KPoint {
		// a broadcast keyed to a variable: place at the loop defining
		// the variable (per-iteration), or before the call when fixed
		if cc.PointVar != "" {
			if loop := partition.LoopFor(nest, cc.PointVar); loop != nil {
				cc.AtLoop = loop
				cc.Why = WhyOwnerVaries
				return cc
			}
			if isOuterVar(proc, cc.PointVar) && !proc.IsMain {
				cc.Delay = true
				cc.Why = WhyFormalOwner
				return cc
			}
		}
		return cc // placed at the call site
	}

	// Shift/Gather: vectorize across caller loops when no true
	// dependence is carried (checked with interprocedural RSDs).
	writeSecs := calleeWrites(site, sections, proc, nest, mod, env)
	for i := len(nest) - 1; i >= 0; i-- {
		loop := nest[i]
		if !cc.Section.Anchors(loop.Var) {
			// the section does not vary with this loop; vectorizing
			// across it would replicate the same message, so hoist
			if !carriedAt(writeSecs, cc.Section, loop.Var) {
				cc.BeforeLoop = loop
				continue
			}
			cc.AtLoop = loop
			cc.Why = WhyCalleeWrites
			return cc
		}
		if carriedAt(writeSecs, cc.Section, loop.Var) {
			cc.AtLoop = loop
			cc.Why = WhyCalleeWrites
			return cc
		}
		lo, okLo := ast.EvalInt(loop.Lo, env)
		hi, okHi := ast.EvalInt(loop.Hi, env)
		if !okLo || !okHi {
			cc.AtLoop = loop // cannot expand: keep per-iteration
			cc.Why = WhySymbolBounds
			return cc
		}
		cc.Section = cc.Section.Bind(loop.Var, lo, hi)
		cc.BeforeLoop = loop
	}
	if cc.Section.Symbolic() && !proc.IsMain {
		cc.Delay = true
		cc.BeforeLoop = nil
		cc.Why = WhyFormalRange
	}
	return cc
}

// passThrough re-delays cc, a message on a COMMON array proc does not
// declare, to proc's callers, widening the section's ends they cannot
// name. It cannot leave proc if it must stay in one of proc's loops, if
// proc selects its root or if another call in proc may write the array.
func passThrough(proc *ast.Procedure, node *acg.Node, cc *CallComm, fx *sideeffect.Analysis, env ast.Env) error {
	named := func(v string) bool { s := proc.Symbols.Lookup(v); return v == "" || s != nil && s.IsFormal }
	why := ""
	if cc.AtLoop != nil || !named(cc.PointVar) {
		why = "it is placed in " + proc.Name
	}
	for _, s := range node.Calls {
		if s != cc.Site && (fx == nil || fx.Summaries[s.Callee.Name()].Mod.Has(cc.Array)) {
			why = fmt.Sprintf("call %s at line %d may write %s", s.Callee.Name(), s.Pos().Line, cc.Array)
		}
	}
	if why != "" {
		return fmt.Errorf("comm: %s line %d: call %s: the message for %s cannot move to the callers of %s (%s), and %s does not declare its COMMON block",
			proc.Name, cc.Site.Pos().Line, cc.Site.Callee.Name(), cc.Array, proc.Name, why, proc.Name)
	}
	for i, d := range cc.Section.Dims {
		if !named(d.LoVar) || !named(d.HiVar) {
			cc.Section.Dims[i] = declaredDim(cc.Site.Caller.Lookup(cc.Array), i, env)
		}
	}
	cc.Delay, cc.BeforeLoop, cc.Why = true, nil, WhyUndeclared
	return nil
}

// calleeWrites returns the callee's write sections translated to the
// caller's space with anchors preserved (no loop expansion), for the
// carried-dependence test.
func calleeWrites(site *acg.CallSite, sections map[string]*SectionSummary, proc *ast.Procedure, nest []*ast.Do, mod sideeffect.Set, env ast.Env) []*rsd.Section {
	sum := sections[site.Callee.Name()]
	if sum == nil {
		return nil
	}
	vars := siteVars(site)
	var out []*rsd.Section
	for name, secs := range sum.Writes {
		target := site.CallerName(name)
		if target == "" {
			continue
		}
		for _, sec := range secs {
			out = append(out, callSection(sec, site, vars, target, proc, nest, mod, env))
		}
	}
	return out
}

// carriedAt conservatively decides whether a true dependence on the
// read section is carried by the loop with index v: a write section to
// the same array whose anchored window on v differs from the read's
// (or which overlaps without anchoring v) implies a cross-iteration
// flow; identical windows [v+lo : v+hi] move with v and mean distance 0
// (loop-independent), which vectorization tolerates. A dimension
// anchored at v at one end only ([v+1 : n]) overlaps itself across
// iterations however equal the two sides are, so it counts as carried.
func carriedAt(writes []*rsd.Section, read *rsd.Section, v string) bool {
	for _, w := range writes {
		if w.Array != read.Array || len(w.Dims) != len(read.Dims) {
			continue
		}
		overlapPossible := true
		sameWindow := true
		anchorsV := false
		for i := range w.Dims {
			wd, rd := w.Dims[i], read.Dims[i]
			if wd.Anchors(v) || rd.Anchors(v) {
				anchorsV = true
				if wd.LoVar != wd.HiVar || wd.LoVar != rd.LoVar || wd.HiVar != rd.HiVar || wd.Lo != rd.Lo || wd.Hi != rd.Hi {
					sameWindow = false
				}
				continue
			}
			if !wd.IsSymbolic() && !rd.IsSymbolic() {
				if wd.Hi < rd.Lo || rd.Hi < wd.Lo {
					overlapPossible = false
				}
			}
		}
		if !overlapPossible {
			continue
		}
		if !anchorsV || !sameWindow {
			return true
		}
	}
	return false
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
