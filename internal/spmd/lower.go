package spmd

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"fortd/internal/ast"
	"fortd/internal/decomp"
	"fortd/internal/machine"
)

// The execution plan. Lower resolves a program once into closures over
// frame slots; every processor of every run executes the same plan with
// its own node state. Nothing in a plan is written after Lower returns
// (all run state lives in node and frame), so the node programs of any
// number of runs share it without locks.

const (
	// maxRank bounds array and section rank (Fortran 77's own limit), so
	// subscripts and section bounds live in fixed-size stack scratch.
	maxRank = 7
	// maxCallDepth turns runaway recursion, which Fortran 77 forbids,
	// into an error instead of a goroutine stack overflow.
	maxCallDepth = 4096
	// maxArrayElems bounds one array (a processor may hold all of it): a
	// wild declaration is an error, not an out-of-memory kill.
	maxArrayElems = 1 << 26
	// pollEvery is how many DO iterations pass between checks of the
	// machine's abort flag, so a loop that neither computes nor
	// communicates still observes a deadline or a cancelled context.
	pollEvery = 1024
)

type (
	// exprFn evaluates an expression in a frame. A failure is parked in
	// the node (first one wins) and the statement that owns the
	// expression reports it before it has any effect.
	exprFn func(fr *frame) float64
	// stmtFn executes a statement. errReturn unwinds to the CALL.
	stmtFn func(fr *frame) error
)

// errReturn is the RETURN statement's unwind signal: every body loop
// passes it up like an error and the CALL (or the main program) that
// started the procedure swallows it.
var errReturn = errors.New("return")

// Plan is a whole program lowered for a machine of nproc processors.
type Plan struct {
	main    *procPlan // nil: the program has no main unit, and every run fails
	nproc   int
	dists   map[string]*decomp.Dist                               // initial distributions of main-program arrays
	overlap func(proc, array string, dim, block int) (lo, hi int) // Lower's overlap
	ntags   int                                                   // distinct split-phase tags (node.posted's length)
	nmember int                                                   // distinct COMMON members (node.members' length)
}

// Code is one unit lowered for nproc processors, and depends on nothing
// else: it names the procedures it calls, the COMMON members it declares
// and the split-phase tags it uses by unit-local index, which a link
// (procPlan) resolves for one program, so the plans of every program
// that holds the unit may share it (Memo). A name keeps one slot for its
// scalar and its array binding; a call's actual decides which.
type Code struct {
	name    string
	slots   map[string]int // name → slot
	names   []string       // slot → name
	params  []int          // formal position → slot
	decls   []decl         // frame prologue, in declaration order
	body    []stmtFn
	ncurs   int      // cursors a frame needs: the most of any cursor loop (cursor.go)
	nstrip  int      // cursor loops with a strip form (strip.go)
	calls   []string // call index → the procedure called
	commons []string // member index → the COMMON member declared
	tags    []int    // tag index → the split-phase tag used
}

// procPlan is one unit's code linked into a plan.
type procPlan struct {
	*Code
	callee []*procPlan // call index → the plan called (nil: no such procedure)
	member []int       // member index → the member's index in node.members
	tag    []int       // tag index → the tag's index in node.posted
}

// Memo returns the code it keeps for (u, nproc), or else keeps what lower
// makes. A unit's pointer stands for its text: no pass writes a unit it
// did not create.
type Memo func(u *ast.Procedure, nproc int, lower func() *Code) *Code

// decl is one step of a frame's prologue: define a scalar that no
// actual argument bound, allocate an array, or bind a COMMON member.
type decl struct {
	slot   int
	array  bool
	member int          // member index (Code.commons), -1: none
	lo, hi []intOperand // array bounds, evaluated in the frame under construction
}

// frame is one procedure activation, two slices over the procedure's
// slots: vals is the storage of the scalars the frame owns, and
// bind[slot] is what the name is bound to.
type frame struct {
	nd   *node
	pp   *procPlan
	vals []float64
	bind []binding
	// curs address the array references of the cursor loop in progress,
	// if walk is set (cursor.go).
	curs []cursor
	walk bool
	next *frame // the node's next free frame, once returned
}

// binding is what a name means in one activation: ref points at its
// scalar (in the frame's vals, or in a caller's for a formal passed by
// reference; nil while the name is undefined), arr at its array.
type binding struct {
	ref *float64
	arr *Array
}

// node is one processor's executor state.
type node struct {
	pl   *Plan
	proc *machine.Proc
	p    int
	pf   float64 // myproc()
	// err is the first expression failure of the statement in flight.
	err error
	// depth counts the calls in progress; free recycles returned frames.
	depth int
	free  *frame
	ar    *arena // the run's: new frames and strip scratch come from it
	// members holds what each COMMON member (Plan.nmember of them,
	// scalars and arrays) is bound to for the rest of the run: the first
	// activation that declares the member makes the binding.
	members []binding
	// posted holds the outstanding split-phase operations by dense tag
	// index (post executed, matching wait not yet reached). Tags are
	// unique program-wide, so a post can be completed by a wait in
	// another statement or procedure without collision.
	posted  []*postedOp
	freeOps []*postedOp
	// seed holds Options.Init while the main program's frame is built:
	// an array it names starts with the values of the elements this
	// processor owns.
	seed      map[string][]float64
	hole      float64 // stands in for an element not held (arrayRef.elem)
	partStart []int   // allgather scratch: where each processor's part starts
	groups    []group // the last deal's non-empty groups
	place     []int   // remap scratch: where in the new window each element received goes
}

// arena is one run's per-processor state: its nodes, the frames they
// activate first (with their slots and bindings), posted-op and COMMON
// tables, a remap's deal scratch, and the strip scratch (strip.go), which
// all its nodes share.
// The main unit's frames come from slabs sized for every processor, a
// callee's from chunks. A run's nodes take from one arena without locks
// because the machine runs one node at a time, and taking never waits.
type arena struct {
	nodes  []node
	frames slab[frame]
	vals   slab[float64]
	binds  slab[binding]
	curs   slab[cursor]
	posted slab[*postedOp]
	mains  slab[*Array] // what each node returns
	strip  []float64
	tally  []int32     // a remap's: every deal counts in it, P zeros between deals
	groups slab[group] // nodes' deal groups
}

// newArena is the arena of a run of pl on np processors.
func (pl *Plan) newArena(np int) *arena {
	n := len(pl.main.names)
	return &arena{
		nodes:  make([]node, np),
		frames: make(slab[frame], 0, np),
		vals:   make(slab[float64], 0, np*n),
		binds:  make(slab[binding], 0, np*(n+pl.nmember)),
		curs:   make(slab[cursor], 0, np*pl.main.ncurs),
		posted: make(slab[*postedOp], 0, np*pl.ntags),
		mains:  make(slab[*Array], 0, np*n),
	}
}

func (nd *node) fail(err error) {
	if nd.err == nil {
		nd.err = err
	}
}

func (nd *node) takeErr() error {
	err := nd.err
	nd.err = nil
	return err
}

// node is proc's node of a run of pl.
func (ar *arena) node(pl *Plan, proc *machine.Proc) *node {
	nd := &ar.nodes[proc.ID()]
	*nd = node{pl: pl, ar: ar, proc: proc, p: proc.ID(), pf: float64(proc.ID()),
		posted: ar.posted.take(pl.ntags), members: ar.binds.take(pl.nmember)}
	return nd
}

// run executes the plan as proc's node program in the run of arena ar,
// and returns the main program's arrays by slot (nil: a scalar).
func (pl *Plan) run(proc *machine.Proc, opts Options, ar *arena) ([]*Array, error) {
	nd := ar.node(pl, proc)
	nd.seed = opts.Init
	fr, err := nd.enter(pl.main, nil, nil)
	nd.seed = nil
	if err != nil {
		return nil, err
	}
	for name, v := range opts.InitScalars {
		if slot, ok := pl.main.slots[name]; ok && fr.bind[slot].ref != nil {
			*fr.bind[slot].ref = v
		}
	}
	if err := runBody(fr, pl.main.body); err != nil && err != errReturn {
		return nil, err
	}
	arrays := ar.mains.take(len(fr.bind))
	for slot, b := range fr.bind {
		arrays[slot] = b.arr
	}
	return arrays, nil
}

// checkInit compares every Options.Init entry with its array before the
// machine starts, so that a bad one fails the run once and not on each
// of P processors. Main-program bounds are constants in any real
// program; an array whose bounds are not is left to allocArray.
func (pl *Plan) checkInit(init map[string][]float64) error {
	for i := range pl.main.decls {
		d := &pl.main.decls[i]
		name := pl.main.names[d.slot]
		vals, ok := init[name]
		if !ok || !d.array {
			continue
		}
		size := 1
		for dim := range d.lo {
			lo, hi := &d.lo[dim], &d.hi[dim]
			ext := hi.k - lo.k + 1
			if lo.kind != intConst || hi.kind != intConst || ext < 0 || ext > maxArrayElems || size*ext > maxArrayElems {
				size = -1 // allocArray evaluates, or rejects, these bounds
				break
			}
			size *= ext
		}
		if size >= 0 && len(vals) != size {
			return &InitError{Array: name, Values: len(vals), Elems: size}
		}
	}
	return nil
}

func runBody(fr *frame, body []stmtFn) error {
	for _, s := range body {
		if err := s(fr); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Frames

// newFrame takes a frame from the free list, or else from the arena,
// and clears its bindings.
func (nd *node) newFrame(pp *procPlan) *frame {
	ar, fr := nd.ar, nd.free
	if fr != nil {
		nd.free = fr.next
	} else {
		fr = &ar.frames.take(1)[0]
		fr.nd = nd
	}
	n := len(pp.names)
	if cap(fr.vals) < n {
		fr.vals, fr.bind = ar.vals.take(n), ar.binds.take(n)
	}
	if cap(fr.curs) < pp.ncurs {
		fr.curs = ar.curs.take(pp.ncurs)
	}
	fr.pp = pp
	fr.vals, fr.bind, fr.curs = fr.vals[:n], fr.bind[:n], fr.curs[:pp.ncurs]
	clear(fr.bind)
	return fr
}

// define gives the slot a fresh zero scalar owned by the frame.
func (fr *frame) define(slot int) *float64 {
	p := &fr.vals[slot]
	*p = 0
	fr.bind[slot].ref = p
	return p
}

// scalar returns the storage of the slot's scalar, defining it on first
// use (an assignment, DO or reduction may introduce a name the symbol
// table never declared, as generated code does with my$p).
func (fr *frame) scalar(slot int) *float64 {
	if p := fr.bind[slot].ref; p != nil {
		return p
	}
	return fr.define(slot)
}

// argPlan is one actual argument: an identifier passes whatever the
// caller has bound to it by reference, any other expression passes its
// value.
type argPlan struct {
	slot  int     // caller slot (identifier)
	value operand // by-value expression (isExpr)
	byVal bool
}

// enter builds the activation of pp called from caller with args: bind
// the formals, then run the declaration prologue in symbol order.
func (nd *node) enter(pp *procPlan, args []argPlan, caller *frame) (*frame, error) {
	fr := nd.newFrame(pp)
	for i, slot := range pp.params {
		if i >= len(args) {
			break
		}
		a := &args[i]
		if a.byVal {
			v := a.value.eval(caller)
			if nd.err != nil {
				return nil, nd.takeErr()
			}
			*fr.define(slot) = v
			continue
		}
		if arr := caller.bind[a.slot].arr; arr != nil {
			fr.bind[slot].arr = arr
		} else if ref := caller.bind[a.slot].ref; ref != nil {
			fr.bind[slot].ref = ref
		} else {
			fr.define(slot)
		}
	}
	for i := range pp.decls {
		d := &pp.decls[i]
		b := &fr.bind[d.slot]
		m := -1
		if d.member >= 0 {
			m = pp.member[d.member]
		}
		switch {
		case m >= 0 && nd.members[m] != (binding{}):
			*b = nd.members[m]
			continue
		case m >= 0 && !d.array:
			b.ref = new(float64) // outlives the frame
		case !d.array:
			if b.ref == nil && b.arr == nil {
				fr.define(d.slot)
			}
		case b.arr == nil: // not a bound formal
			arr, err := nd.allocArray(fr, d)
			if err != nil {
				return nil, err
			}
			b.arr = arr
		}
		if m >= 0 {
			nd.members[m] = *b // the member's first activation
		}
	}
	return fr, nil
}

func (nd *node) allocArray(fr *frame, d *decl) (*Array, error) {
	name := fr.pp.names[d.slot]
	if len(d.lo) > maxRank {
		return nil, fmt.Errorf("array %s: rank %d exceeds the limit of %d", name, len(d.lo), maxRank)
	}
	bnds := make([]int, 2*len(d.lo))
	arr := &Array{Lo: bnds[:len(d.lo):len(d.lo)], Hi: bnds[len(d.lo):]}
	size := 1
	for i := range d.lo {
		arr.Lo[i] = d.lo[i].eval(fr)
		arr.Hi[i] = d.hi[i].eval(fr)
		if nd.err != nil {
			return nil, fmt.Errorf("array %s: %v", name, nd.takeErr())
		}
		ext := arr.Hi[i] - arr.Lo[i] + 1
		if ext < 0 || ext > maxArrayElems || size*ext > maxArrayElems {
			return nil, fmt.Errorf("array %s: extent %d of dimension %d is negative or takes the array past %d elements",
				name, ext, i+1, maxArrayElems)
		}
		size *= ext
	}
	vals, seeded := nd.seed[name]
	if seeded && len(vals) != size {
		return nil, &InitError{Array: name, Values: len(vals), Elems: size}
	}
	// the distribution table is keyed by main-program names; frames
	// entered from the main program see it too (unless the rank differs)
	if d := nd.pl.dists[name]; d != nil && nd.depth == 0 && len(d.Sizes) == len(arr.Lo) {
		arr.Dist = d
	}
	if fr.pp == nd.pl.main {
		arr.name = name
	}
	if arr.win = nd.window(arr); arr.win == nil {
		if seeded {
			// a clone is written once; make + copy would zero it first
			arr.Data = append([]float64(nil), vals...)
		} else {
			arr.Data = make([]float64, size)
		}
		return arr, nil
	}
	// the own share starts as vals or zero, the overlap region as NaN
	arr.Data = poisoned(nil, arr.size(arr.win))
	dim := arr.win.dim
	own := newWindow(arr.Dist, nd.p, arr.Lo[dim], arr.Hi[dim])
	arr.runs(&own, func(full, local, n int) {
		if seeded {
			copy(arr.Data[local:local+n], vals[full:])
		} else {
			clear(arr.Data[local : local+n])
		}
	})
	return arr, nil
}

// window returns what this processor stores of a: its share of a
// distributed main-program array, a BLOCK with its overlap region (nil: all).
func (nd *node) window(a *Array) *window {
	d, pl := a.Dist, nd.pl
	if a.name == "" || pl.nproc == 1 || d == nil || d.IsReplicated() {
		return nil
	}
	dim := d.DistDim()
	w := newWindow(d, nd.p, a.Lo[dim], a.Hi[dim])
	if pl.overlap != nil && w.k == 0 && w.n > 0 {
		lo, hi := pl.overlap(pl.main.name, a.name, dim, w.n) // the paper's REAL X(30)
		w.lo, w.hi = max(a.Lo[dim], w.lo+lo-1), min(a.Hi[dim], w.lo+hi-1)
		w.n = w.hi - w.lo + 1
	}
	return &w
}

// ---------------------------------------------------------------------------
// Lowering

// Lower resolves prog for runs on nproc processors, with dists the
// initial distributions of the main program's arrays (array name →
// dist; arrays not listed are replicated) and overlap the local extent
// lo:hi the compiler estimated (§5.6) for a block 1:block with its
// overlap region in dimension dim of a main-program array, which is
// what a processor stores of it (nil: the block). Only procedures
// reachable from the main program are lowered, each to its Code, or
// taken from memo (nil: lower every unit), and then linked. Lowering
// never fails: whatever is wrong with a statement (unknown array,
// procedure or function, bad arity) is reported when that statement
// executes, and a program without a main unit fails each run.
func Lower(prog *ast.Program, nproc int, dists map[string]*decomp.Dist,
	overlap func(proc, array string, dim, block int) (lo, hi int), memo Memo) *Plan {
	pl := &Plan{nproc: nproc, dists: dists, overlap: overlap}
	if prog.Main() == nil {
		return pl
	}
	lp := &programLowerer{nproc: nproc, prog: prog, memo: memo, procs: map[*ast.Procedure]*procPlan{}, tags: map[int]int{}, members: map[string]int{}}
	if memo == nil {
		lp.memo = func(_ *ast.Procedure, _ int, lower func() *Code) *Code { return lower() }
	}
	pl.main = lp.proc(prog.Main())
	pl.ntags, pl.nmember = len(lp.tags), len(lp.members)
	return pl
}

// programLowerer links one plan, lowering the units memo has no code for.
type programLowerer struct {
	nproc   int
	prog    *ast.Program
	memo    Memo
	procs   map[*ast.Procedure]*procPlan
	tags    map[int]int    // split-phase tag → dense index
	members map[string]int // COMMON member name → dense index: one storage program-wide (acg's contract)
	// scratch of lowerer.cursorLoop: the slots of the scalars the loop
	// under test changes (its index first) and of those its invariant
	// subscripts read
	written, read []int32
	refs          slab[arrayRef]
	subs          slab[intOperand]
	fns           slab[stmtFn]
}

// slab hands out a plan's most numerous records from chunks of 64: a
// plan lives as long as its Program, and the collector marks a chunk as
// one object.
type slab[T any] []T

func (s *slab[T]) take(n int) []T {
	if cap(*s)-len(*s) < n {
		*s = make([]T, 0, max(n, 64))
	}
	*s = (*s)[:len(*s)+n]
	return (*s)[len(*s)-n : len(*s) : len(*s)]
}

// proc returns u's plan: its code, linked on first mention.
func (lp *programLowerer) proc(u *ast.Procedure) *procPlan {
	if pp := lp.procs[u]; pp != nil {
		return pp
	}
	code := lp.memo(u, lp.nproc, func() *Code {
		return (&lowerer{lp: lp, pp: &Code{name: u.Name, slots: map[string]int{}}, unit: u}).lowerUnit()
	})
	pp := &procPlan{Code: code, callee: make([]*procPlan, len(code.calls)), member: dense(lp.members, code.commons), tag: dense(lp.tags, code.tags)}
	lp.procs[u] = pp
	for i, name := range code.calls {
		if callee := lp.prog.Proc(name); callee != nil {
			pp.callee[i] = lp.proc(callee)
		}
	}
	return pp
}

// dense returns the index of each of keys in m, numbering new keys on.
func dense[K comparable](m map[K]int, keys []K) []int {
	out := make([]int, len(keys))
	for i, k := range keys {
		if _, ok := m[k]; !ok {
			m[k] = len(m)
		}
		out[i] = m[k]
	}
	return out
}

// index returns k's index in *list, appending it on first mention.
func index[K comparable](list *[]K, k K) int {
	if i := slices.Index(*list, k); i >= 0 {
		return i
	}
	*list = append(*list, k)
	return len(*list) - 1
}

// lowerer lowers one procedure.
type lowerer struct {
	lp     *programLowerer
	pp     *Code
	unit   *ast.Procedure
	consts map[string]int // the unit's PARAMETER constants
	// owned marks the scalars every activation defines itself: declared,
	// and not a formal (a formal's binding depends on the call).
	owned map[string]bool
	// unbound holds the one lookup every read of a name ident cannot
	// resolve shares (my$p, in every generated guard, bound and section)
	unbound map[string]operand
	line    int  // line of the statement being lowered (0: a declaration)
	decl    bool // lowering a declaration bound: the frame is still being built
	// Lowering the body of a cursor loop (cursor.go), walk is that loop,
	// whose array references take a cursor each, and index its variable.
	walk  *cursorLoop
	index string
}

func (lw *lowerer) slot(name string) int {
	if s, ok := lw.pp.slots[name]; ok {
		return s
	}
	s := len(lw.pp.names)
	lw.pp.slots[name] = s
	lw.pp.names = append(lw.pp.names, name)
	return s
}

// site names a statement in error messages: procedure and line (no
// line: a declaration).
type site struct {
	unit string
	line int
}

func (s site) String() string {
	if s.line == 0 {
		return s.unit
	}
	return fmt.Sprintf("%s:%d", s.unit, s.line)
}

// site is where the statement being lowered sits.
func (lw *lowerer) site() site { return site{lw.unit.Name, lw.line} }

func (lw *lowerer) lowerUnit() *Code {
	u, pp := lw.unit, lw.pp
	lw.consts = map[string]int{}
	lw.owned, lw.unbound = map[string]bool{}, map[string]operand{}
	syms := u.Symbols.Symbols()
	for _, sym := range syms {
		switch sym.Kind {
		case ast.SymConstant:
			lw.consts[sym.Name] = sym.ConstValue
		case ast.SymScalar:
			lw.owned[sym.Name] = sym.Common == ""
		}
	}
	for _, name := range u.Params {
		pp.params = append(pp.params, lw.slot(name))
		delete(lw.owned, name)
	}
	lw.decl = true
	for _, sym := range syms {
		if sym.Kind != ast.SymScalar && sym.Kind != ast.SymArray {
			continue
		}
		d := decl{slot: lw.slot(sym.Name), array: sym.Kind == ast.SymArray, member: -1}
		if sym.Common != "" {
			d.member = index(&lw.pp.commons, sym.Name)
		}
		for _, ext := range sym.Dims {
			lo, _ := lw.intExpr(ext.Lo)
			hi, _ := lw.intExpr(ext.Hi)
			d.lo, d.hi = append(d.lo, lo), append(d.hi, hi)
		}
		pp.decls = append(pp.decls, d)
	}
	lw.decl = false
	pp.body = lw.body(u.Body)
	return pp
}

func (lw *lowerer) body(stmts []ast.Stmt) []stmtFn {
	out := lw.lp.fns.take(len(stmts))[:0]
	for _, s := range stmts {
		if fn := lw.stmt(s); fn != nil {
			out = append(out, fn)
		}
	}
	return out
}

// stmt lowers one statement (nil: a directive, nothing to execute).
func (lw *lowerer) stmt(s ast.Stmt) stmtFn {
	lw.line = s.Pos().Line
	switch st := s.(type) {
	case *ast.Assign:
		return lw.assign(st)
	case *ast.Do:
		return lw.do(st)
	case *ast.If:
		return lw.ifStmt(st)
	case *ast.Call:
		return lw.call(st)
	case *ast.Return:
		return func(*frame) error { return errReturn }
	case *ast.Message:
		return lw.message(st)
	case *ast.Remap:
		return lw.remap(st)
	case *ast.GlobalReduce:
		return lw.globalReduce(st)
	case *ast.Decomposition, *ast.Align, *ast.Distribute:
		return nil // directives are no-ops at run time
	}
	unit := lw.unit.Name
	return func(*frame) error { return fmt.Errorf("%s: cannot execute %T", unit, s) }
}

// assign lowers an assignment: right-hand side, then the target's
// subscripts, then one Compute of the statement's whole flop count.
func (lw *lowerer) assign(st *ast.Assign) stmtFn {
	switch lhs := st.Lhs.(type) {
	case *ast.Ident:
		rhs, ops := lw.value(st.Rhs, lhs.Name)
		slot, flops := lw.slot(lhs.Name), ops+1
		return func(fr *frame) error {
			nd := fr.nd
			v := rhs.eval(fr)
			if nd.err != nil {
				return nd.takeErr()
			}
			*fr.scalar(slot) = v
			nd.proc.Compute(flops)
			return nil
		}
	case *ast.ArrayRef:
		rhs, ops := lw.value(st.Rhs, lhs.Name)
		ref, subOps := lw.arrayRef(lhs.Name, lhs.Subs)
		if sp := lw.walk.stripForm(); sp != nil {
			sp.flops = append(sp.flops, ops+subOps+1)
		}
		return ref.store(rhs, ops+subOps+1)
	}
	rhs, ops := lw.expr(st.Rhs)
	flops := ops + 1
	return func(fr *frame) error {
		nd := fr.nd
		rhs.eval(fr)
		if nd.err != nil {
			return nd.takeErr()
		}
		nd.proc.Compute(flops)
		return nil
	}
}

// integer reports whether name holds an INTEGER: a PARAMETER constant,
// codegen's my$p, or a name the unit's symbol table types INTEGER (by
// its first letter where the table lacks it). Any other name with a $
// is codegen's, such as v$red, which holds v's partial value: only a
// unit reparsed from its printed text has it in its table, typed by
// its first letter, so it is never INTEGER and a cold compile and a
// reparsed one store alike.
func (lw *lowerer) integer(name string) bool {
	if _, ok := lw.consts[name]; ok || name == "my$p" {
		return true
	}
	if strings.Contains(name, "$") {
		return false
	}
	if sym := lw.unit.Symbols.Lookup(name); sym != nil {
		return sym.Type == ast.TypeInteger
	}
	return name != "" && name[0] >= 'i' && name[0] <= 'n'
}

// value lowers rhs, assigned to name: converted toward zero, as F77's
// INT does, where name is INTEGER and rhs may not be integral; the
// conversion costs no flop.
func (lw *lowerer) value(rhs ast.Expr, name string) (operand, int) {
	v, ops := lw.expr(rhs)
	switch {
	case !lw.integer(name) || lw.isIntExpr(rhs):
		return v, ops
	case v.kind == opConst:
		return constant(math.Trunc(v.c)), ops
	}
	return closure(func(fr *frame) float64 { return math.Trunc(v.eval(fr)) }), ops
}

// do lowers a DO loop. The bounds are evaluated once and cost no
// virtual time. The loop runs ast.Trip iterations and then leaves its
// index at F77's ast.Exit, lo + trip·s, on every path: walked, on
// cursors or in strips, and when it runs no iteration. A body that
// qualifies runs on cursors whenever they can be positioned on entry
// (cursor.go): the loop itself, its abort polling and the statements'
// flop charges are the same either way.
func (lw *lowerer) do(st *ast.Do) stmtFn {
	// the parameters are truncated toward zero, as F77 converts them to
	// an INTEGER index
	lo, _ := lw.expr(st.Lo)
	hi, _ := lw.expr(st.Hi)
	step := constant(1)
	if st.Step != nil {
		step, _ = lw.expr(st.Step)
	}
	// the closure captures the unit, not its name: a word less, which
	// pays for cl and keeps a DO in its allocation size class
	unit, slot := lw.unit, lw.slot(st.Var)
	cl := lw.cursorLoop(st)
	lw.walk = cl
	body := lw.body(st.Body)
	lw.walk = nil
	if cl != nil {
		lw.pp.ncurs = max(lw.pp.ncurs, len(cl.refs))
	}
	if sp := cl.stripForm(); sp != nil {
		lw.lowerStrip(st, sp)
		lw.pp.nstrip++
	}
	return func(fr *frame) error {
		nd := fr.nd
		l, h, s := int(lo.eval(fr)), int(hi.eval(fr)), int(step.eval(fr))
		if nd.err != nil {
			return nd.takeErr()
		}
		if s == 0 {
			return fmt.Errorf("%s: zero loop step", unit.Name)
		}
		n, v := ast.Trip(l, h, s), fr.scalar(slot)
		walk := cl != nil && cl.position(fr, l, s, n)
		if sp := cl.stripForm(); !walk || sp == nil || !sp.run(fr, fr.curs[:len(cl.refs)], l, s, n) {
			fr.walk = walk
			for t, i := 1, l; t <= n; t, i = t+1, i+s {
				*v = float64(i)
				for _, b := range body {
					if err := b(fr); err != nil {
						fr.walk = false
						return err
					}
				}
				if t%pollEvery == 0 {
					nd.proc.CheckAbort()
				}
				if walk {
					for k := range fr.curs[:len(cl.refs)] {
						fr.curs[k].off += fr.curs[k].stride
					}
				}
			}
			fr.walk = false
		}
		*v = float64(ast.Exit(l, n, s))
		return nil
	}
}

func (lw *lowerer) ifStmt(st *ast.If) stmtFn {
	cond, flops := lw.expr(st.Cond)
	then, els := lw.body(st.Then), lw.body(st.Else)
	return func(fr *frame) error {
		nd := fr.nd
		c := cond.eval(fr)
		if nd.err != nil {
			return nd.takeErr()
		}
		nd.proc.Compute(flops)
		if c != 0 {
			return runBody(fr, then)
		}
		return runBody(fr, els)
	}
}

func (lw *lowerer) call(st *ast.Call) stmtFn {
	unit, name := lw.unit.Name, st.Name
	k := index(&lw.pp.calls, name)
	args := make([]argPlan, len(st.Args))
	for i, a := range st.Args {
		if id, ok := a.(*ast.Ident); ok {
			args[i] = argPlan{slot: lw.slot(id.Name)}
			continue
		}
		v, _ := lw.expr(a)
		args[i] = argPlan{value: v, byVal: true}
	}
	return func(fr *frame) error {
		nd, callee := fr.nd, fr.pp.callee[k]
		if callee == nil {
			return fmt.Errorf("%s: call to unknown procedure %s", unit, name)
		}
		if nd.depth >= maxCallDepth {
			return fmt.Errorf("%s: call to %s nests deeper than %d (recursion is not supported)", unit, name, maxCallDepth)
		}
		nf, err := nd.enter(callee, args, fr)
		if err != nil {
			return err
		}
		nd.depth++
		err = runBody(nf, callee.body)
		nd.depth--
		if err == errReturn {
			err = nil
		}
		if err == nil {
			nf.next, nd.free = nd.free, nf
		}
		return err
	}
}
