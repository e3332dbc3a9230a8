package comm

import (
	"fmt"
	"slices"

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
	Layout   decomp.Decomp // the array's decomposition where the callee reads it
	DistDim  int
	Section  *rsd.Section
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

// RemapsAt yields each array whose layout may change just before s, or
// after s began (inside the procedure s calls, or after s). A remap
// drops every message received for the array, so no message crosses
// it.
type RemapsAt func(s ast.Stmt, after bool, yield func(array string))

// Analyze runs Figure 11 for one procedure: classify nonlocal
// references, choose message placement by dependence level, instantiate
// delayed communication arriving from callees, and collect the
// still-delayed descriptors for this procedure's callers. fx says which
// scalars the procedure may assign, as for ComputeSections; remapsAt
// (nil: none) says where the procedure's arrays may be remapped.
func Analyze(
	proc *ast.Procedure,
	node *acg.Node,
	plan *partition.Plan,
	refs []*depend.Ref,
	distOf partition.DistOf,
	delayedOf DelayedOf,
	sections map[string]*SectionSummary,
	fx *sideeffect.Analysis,
	remapsAt RemapsAt,
	env ast.Env,
) (*Result, error) {
	res := &Result{}
	var err error
	items := map[*ast.Assign]*partition.Item{}
	for _, it := range plan.Items {
		items[it.Stmt] = it
	}
	h := &hoister{proc: proc, node: node, sections: sections, mod: assigned(fx, proc), remapsAt: remapsAt, env: env}

	// --- local references -------------------------------------------------
	// Reads in assignments, IF conditions, loop bounds and call
	// arguments all need their data resolved; only assignments carry a
	// partitioning item (the others execute replicated).
	for _, ref := range refs {
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
		h.place(acc, ref)
		res.Accesses = append(res.Accesses, acc)
		if acc.Delay {
			res.Delayed = append(res.Delayed, toDelayed(acc, env))
		}
	}

	// --- delayed communication from callees --------------------------------
	if node != nil && slices.ContainsFunc(node.Calls, func(s *acg.CallSite) bool { return len(delayedOf(s.Callee.Name())) > 0 }) {
		for _, w := range h.collect() {
			if w.site == nil {
				continue
			}
			for _, d := range delayedOf(w.site.Callee.Name()) {
				cc := h.instantiate(w.site, d, w.nest, distOf)
				if cc == nil {
					continue
				}
				if proc.Symbols.Lookup(cc.Array) == nil && err == nil {
					err = h.passThrough(cc)
				}
				res.CallComms = append(res.CallComms, cc)
				if cc.Delay {
					res.Delayed = append(res.Delayed, reDelay(cc))
				}
			}
		}
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
		Ref: ref.Expr, Stmt: ref.Stmt, Nest: ref.Nest, Array: ref.Array,
		Dist: dist, DistDim: dim, Section: RefSection(proc, ref.Expr, ref.Nest, env),
	}
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
		if dist.Specs[dim].Kind == ast.DistBlock && abs(acc.Shift) < dist.BlockSize() {
			acc.Kind = KShift
			return acc
		}
		// shift spanning multiple blocks, or cyclic/block-cyclic shift:
		// degrade to an allgather (correct, more communication)
		acc.Kind = KGather
		return acc
	}

	// Fixed subscript at run time ⇒ broadcast from the owner; sweeping
	// subscript ⇒ allgather. "Fixed" is judged at placement time, so a
	// loop index other than the partition variable counts: the owner
	// changes per iteration.
	acc.Kind = KGather
	if sub.OK && (sub.Var == "" || partition.LoopFor(ref.Nest, sub.Var) != nil || isOuterVar(proc, sub.Var)) {
		acc.Kind, acc.Point = KPoint, ref.Expr.Subs[dim]
	}
	return acc
}

// Placement reasons, recorded on Access.Why / CallComm.Why. They are
// package-level constants so recording them is a pointer store —
// allocation-free whether or not remarks are collected.
const (
	WhyCarriedDep   = "a true dependence is carried at this loop level"
	WhySameIter     = "the same iteration of this loop writes the section before the reference reads it"
	WhyOwnerVaries  = "the broadcasting owner changes every iteration of this loop"
	WhyFormalRange  = "the nonlocal section ranges over formal parameters only known in the caller"
	WhyWritten      = "a statement this loop runs before the reference may write the section"
	WhyRemapped     = "this loop may remap the array, which drops what a message delivered"
	WhySymbolBounds = "the loop bounds are not compile-time constants, so the section cannot be expanded"
	WhyFormalOwner  = "the broadcasting owner is selected by a formal parameter only known in the caller"
	WhyUndeclared   = "the array is in a COMMON block this procedure does not declare, so only a caller that declares it can name it"
)

// place chooses the message's loop level (message vectorization): no
// shallower than the depth a true dependence from an assignment pins
// ref to (depend.Ref.SinkLevel, -1: none), nor than the loop whose
// index selects a broadcast's owner, nor than any loop whose calls may
// write the section. A message that leaves every loop is delayed to the
// callers when its section is known only there and nothing before it
// in the procedure may write the section.
func (h *hoister) place(acc *Access, ref *depend.Ref) {
	level, why, root := max(ref.SinkLevel, 0), WhyCarriedDep, ""
	if ref.SameIter {
		why = WhySameIter
	}
	// a broadcast whose point subscript varies with a local loop cannot
	// be hoisted above the loop defining that variable
	if acc.Kind == KPoint && acc.Point != nil {
		root, _, _, _ = depend.LinearSubscript(acc.Point, h.env)
		if i := slices.Index(acc.Nest, partition.LoopFor(acc.Nest, root)); i >= level {
			level, why = i+1, WhyOwnerVaries
		}
	}
	for i := len(acc.Nest) - 1; i >= level; i-- {
		if w := h.writer(acc.Section, acc.Nest, acc.Stmt, i, false); w != nil {
			level, why = i+1, w.why()
		}
	}
	if level > 0 {
		acc.AtLoop = acc.Nest[level-1]
		acc.Why = why
		return
	}
	// fully vectorized: delay to the callers when the section or the
	// root of a formal or COMMON array is known only there
	arr := h.proc.Symbols.Lookup(acc.Array)
	if !h.proc.IsMain && arr != nil && (arr.IsFormal || arr.Common != "") && (acc.Section.Symbolic() || isOuterVar(h.proc, root)) &&
		ref.SinkLevel < 0 && h.writer(acc.Section, acc.Nest, acc.Stmt, -1, false) == nil {
		acc.Delay = true
		acc.Why = WhyFormalRange
	}
}

func isOuterVar(proc *ast.Procedure, v string) bool {
	s := proc.Symbols.Lookup(v)
	return s != nil && (s.IsFormal || s.Common != "")
}

func toDelayed(acc *Access, env ast.Env) *Delayed {
	d := &Delayed{
		Array: acc.Array, Kind: acc.Kind, Shift: acc.Shift,
		Layout: acc.Dist.Decomp, DistDim: acc.DistDim,
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
		Layout: cc.D.Layout, DistDim: cc.D.DistDim,
		Section: cc.Section,
	}
}

// instantiate translates one delayed communication to a call site and
// decides where to place it: it leaves the loops around the call,
// innermost first, while no write crosses it (h.writer), its section
// expands over each loop it leaves, and a broadcast stays inside the
// loop that selects its root; a message that leaves every loop is
// re-delayed to this procedure's own callers when its section or root
// is known only there and nothing before the call may write it.
func (h *hoister) instantiate(site *acg.CallSite, d *Delayed, nest []*ast.Do, distOf partition.DistOf) *CallComm {
	proc := h.proc
	cc := &CallComm{Site: site, Nest: nest, D: d, Array: site.CallerName(d.Array)}
	if cc.Array == "" {
		return nil
	}
	dist, ok := distOf(cc.Array, site.Stmt)
	if !ok || dist == nil {
		return nil
	}
	// the message crosses no remap in the callee (writer), so it reads
	// the array in the layout the callee receives it in: the caller's,
	// or the one the callee delegates to its callers (livedecomp's
	// Summary.Before), which the caller's remap sets before the messages
	// placed with it. It is built under that layout (the formal has the
	// actual's shape), and writer keeps it from crossing that remap
	if !d.Layout.Equal(dist.Decomp) {
		dist = decomp.MustDist(d.Layout, dist.Sizes, dist.P)
	}
	cc.Dist = dist
	vars := siteVars(site)
	cc.Section = callSection(d.Section, site, vars, cc.Array, proc, nest, h.mod, h.env)
	cc.PointVar, cc.PointOff = d.PointVar, d.PointOff // a constant point is PointOff alone
	if a, ok := vars[d.PointVar]; ok {
		cc.PointVar = a
	}

	// a broadcast stays inside the loop defining its root, or at the call
	// when the root is fixed there, and is delayed with a formal root
	level, delay := 0, false
	if d.Kind == KPoint {
		loop := partition.LoopFor(nest, cc.PointVar)
		delay = !proc.IsMain && isOuterVar(proc, cc.PointVar)
		switch {
		case loop != nil:
			level, cc.Why = slices.Index(nest, loop)+1, WhyOwnerVaries
		case !delay:
			level = len(nest)
		}
	}
	at := len(nest) // the message stays inside nest[:at]
	for ; at > level; at-- {
		loop := nest[at-1]
		if w := h.writer(cc.Section, nest, site.Stmt, at-1, true); w != nil {
			cc.Why = w.why()
			break
		}
		if cc.Section = bindConst(cc.Section, loop, h.env); cc.Section.Anchors(loop.Var) {
			cc.Why = WhySymbolBounds // cannot expand: keep per-iteration
			break
		}
	}
	if d.Kind != KPoint { // bound over the loops it left
		delay = !proc.IsMain && cc.Section.Symbolic()
	}
	switch {
	case at > 0 && cc.Why != "":
		cc.AtLoop = nest[at-1]
	case at > 0: // a broadcast with a fixed root, at the call
	case delay && h.writer(cc.Section, nest, site.Stmt, -1, true) == nil:
		cc.Delay, cc.Why = true, WhyFormalRange
		if d.Kind == KPoint {
			cc.Why = WhyFormalOwner
		}
	case len(nest) > 0:
		cc.BeforeLoop = nest[0]
	}
	return cc
}

// passThrough re-delays cc, a message on a COMMON array proc does not
// declare, to proc's callers, widening the section's ends they cannot
// name. It cannot leave proc if it must stay in one of proc's loops, if
// proc selects its root or if anything it crosses on the way out of the
// loops around the call and to proc's entry may write the array.
func (h *hoister) passThrough(cc *CallComm) error {
	proc := h.proc
	named := func(v string) bool { s := proc.Symbols.Lookup(v); return v == "" || s != nil && s.IsFormal }
	for i, d := range cc.Section.Dims {
		if !named(d.LoVar) || !named(d.HiVar) {
			cc.Section.Dims[i] = declaredDim(cc.Site.Caller.Lookup(cc.Array), i, h.env)
		}
	}
	why := ""
	if cc.AtLoop != nil || !named(cc.PointVar) {
		why = "it is placed in " + proc.Name
	}
	for i := len(cc.Nest) - 1; i >= -1 && why == ""; i-- {
		switch w := h.writer(cc.Section, cc.Nest, cc.Site.Stmt, i, false); {
		case w == nil:
		case w.array != "":
			why = fmt.Sprintf("%s may be remapped at line %d", cc.Array, w.stmt.Pos().Line)
		default:
			why = fmt.Sprintf("call %s at line %d may write %s", w.site.Callee.Name(), w.stmt.Pos().Line, cc.Array)
		}
	}
	if why != "" {
		return fmt.Errorf("comm: %s line %d: call %s: the message for %s cannot move to the callers of %s (%s), and %s does not declare its COMMON block",
			proc.Name, cc.Site.Pos().Line, cc.Site.Callee.Name(), cc.Array, proc.Name, why, proc.Name)
	}
	cc.Delay, cc.BeforeLoop, cc.Why = true, nil, WhyUndeclared
	return nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
