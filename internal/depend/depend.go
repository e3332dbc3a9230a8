// Package depend implements the data dependence analysis the Fortran D
// compiler relies on for message vectorization (§3, step 5; §5.4).
// Subscripts are put in affine form and tested with the standard ZIV,
// strong-SIV, and GCD tests; each dependence carries the loop level of
// the deepest loop that carries it (0 for loop-independent).
package depend

import (
	"fortd/internal/ast"
)

// Kind classifies a dependence.
type Kind int

const (
	True   Kind = iota // flow: write then read
	Anti               // read then write
	Output             // write then write
)

func (k Kind) String() string {
	switch k {
	case True:
		return "true"
	case Anti:
		return "anti"
	case Output:
		return "output"
	}
	return "?"
}

// Ref is one array reference with its enclosing loop context.
type Ref struct {
	Array   string
	Expr    *ast.ArrayRef
	Stmt    ast.Stmt
	IsWrite bool
	Nest    []*ast.Do // enclosing loops, outermost first
	Order   int       // textual position, for loop-independent direction
	// Subs is the affine form of each subscript over Nest, computed
	// once by CollectRefs; every later question about the subscripts
	// (the pair tests, placement) reads it instead of walking Expr.
	Subs []SubForm
	// SinkLevel is how deep in Nest a message serving this reference
	// must stay (set by Analyze): the level of the deepest loop that
	// carries a true dependence into it, or, for a loop-independent one,
	// the number of loops the write shares with the reference, whose
	// current iteration writes before it reads. It is -1 when no true
	// dependence reaches the reference, so only then may its message
	// leave the procedure.
	SinkLevel int
	// SameIter is set when only loop-independent dependences pin the
	// reference at SinkLevel: the iteration that reads writes first.
	SameIter bool

	bounds []loopBounds // of Nest's loops, parallel to it
}

// SubForm is a subscript's affine form; OK is false (and the form
// empty) for a subscript that is not affine.
type SubForm struct {
	Affine
	OK bool
}

// loopBounds holds a loop's step (0: not known) and ordered ends
// (ast.Norm), linearized over the loops enclosing it.
type loopBounds struct {
	step   int
	lo, hi SubForm
}

// Dep is one data dependence between two references of the same array.
type Dep struct {
	Src, Snk *Ref
	Kind     Kind
	// Level is the 1-based index (outermost = 1) of the loop carrying
	// the dependence; 0 means loop-independent.
	Level int
	// Distance is the dependence distance at Level (0 when unknown or
	// loop-independent); Known reports whether it is exact.
	Distance int
	Known    bool
}

// CollectRefs gathers every array reference in body together with its
// loop nest and the affine form of its subscripts; env supplies
// PARAMETER constants. References in one loop body share their Nest
// slice: it is read-only.
func CollectRefs(proc *ast.Procedure, env ast.Env) []*Ref {
	var refs []*Ref
	order := 0
	var nest []*ast.Do
	var bounds []loopBounds

	form := func(e ast.Expr) SubForm {
		a, ok := Linearize(e, env, nest)
		return SubForm{Affine: a, OK: ok}
	}
	addRef := func(x *ast.ArrayRef, stmt ast.Stmt, write bool) {
		r := &Ref{
			Array: x.Name, Expr: x, Stmt: stmt, IsWrite: write,
			Nest: nest, Order: order, SinkLevel: -1, bounds: bounds,
		}
		if len(x.Subs) > 0 {
			r.Subs = make([]SubForm, len(x.Subs))
			for d, sub := range x.Subs {
				r.Subs[d] = form(sub)
			}
		}
		refs = append(refs, r)
	}
	addExprRefs := func(e ast.Expr, stmt ast.Stmt) {
		ast.WalkExpr(e, func(e ast.Expr) {
			if x, ok := e.(*ast.ArrayRef); ok {
				addRef(x, stmt, false)
			}
		})
	}

	var walk func(body []ast.Stmt)
	walk = func(body []ast.Stmt) {
		for _, s := range body {
			order++
			switch st := s.(type) {
			case *ast.Assign:
				if lhs, ok := st.Lhs.(*ast.ArrayRef); ok {
					addRef(lhs, st, true)
					for _, sub := range lhs.Subs {
						addExprRefs(sub, st)
					}
				}
				addExprRefs(st.Rhs, st)
			case *ast.Do:
				addExprRefs(st.Lo, st)
				addExprRefs(st.Hi, st)
				outerNest, outerBounds := nest, bounds
				n := st.Norm(env) // nil ends, not OK forms, for a step not known
				lb := loopBounds{step: n.Step, lo: form(n.Low), hi: form(n.High)}
				// fresh slices, never appended to again: the body's
				// references keep them
				nest = append(outerNest[:len(outerNest):len(outerNest)], st)
				bounds = append(outerBounds[:len(outerBounds):len(outerBounds)], lb)
				walk(st.Body)
				nest, bounds = outerNest, outerBounds
			case *ast.If:
				addExprRefs(st.Cond, st)
				walk(st.Then)
				walk(st.Else)
			case *ast.Call:
				for _, a := range st.Args {
					addExprRefs(a, st)
				}
			}
		}
	}
	walk(proc.Body)
	return refs
}

// Analyze returns the array references of proc, each with its sink
// level (Ref.SinkLevel); env supplies PARAMETER constants. The
// dependence pairs are not kept: a client that asks another question of
// them passes visitPairs an emitter of its own.
func Analyze(proc *ast.Procedure, env ast.Env) []*Ref {
	refs := CollectRefs(proc, env)
	visitPairs(refs, raiseSinkLevel)
	return refs
}

// raiseSinkLevel is Analyze's emitter: it keeps, per reference, what
// Ref.SinkLevel and Ref.SameIter hold.
func raiseSinkLevel(d Dep) {
	if d.Kind != True {
		return
	}
	level := d.Level
	if level == 0 {
		level = commonDepth(d.Src, d.Snk)
	}
	if snk := d.Snk; level > snk.SinkLevel || level == snk.SinkLevel && d.Level != 0 {
		snk.SinkLevel, snk.SameIter = level, d.Level == 0
	}
}

// visitPairs tests every pair of refs that may depend on each other and
// reports each dependence to emit. References are grouped by array and
// only pairs with a write are visited; within that, pairs are tested in
// textual order of the first and then the second reference, which fixes
// the order of the emitted dependences.
func visitPairs(refs []*Ref, emit func(Dep)) {
	// per array: its references and its writes, as indices into refs;
	// per reference: where it stands in both lists
	type group struct{ all, writes []int }
	type place struct {
		g      *group
		pos    int // refs[i] is g.all[pos]
		writes int // number of g.writes before refs[i]
	}
	groups := map[string]*group{}
	places := make([]place, len(refs))
	for i, r := range refs {
		g := groups[r.Array]
		if g == nil {
			g = &group{}
			groups[r.Array] = g
		}
		places[i] = place{g: g, pos: len(g.all), writes: len(g.writes)}
		g.all = append(g.all, i)
		if r.IsWrite {
			g.writes = append(g.writes, i)
		}
	}
	// a write pairs with every later reference of its array, a read
	// with every later write
	for i, a := range refs {
		p := places[i]
		later := p.g.writes[p.writes:]
		if a.IsWrite {
			later = p.g.all[p.pos+1:]
		}
		for _, j := range later {
			testPair(a, refs[j], emit)
		}
	}
}

// testPair tests the ordered reference pair and reports any
// dependences to emit. An unknown ('*') distance-vector component
// expands into all three direction cases: carried at that level in
// either direction, plus "equal at that level", which continues the
// scan into the deeper levels — so an exact inner-loop distance is
// never masked by an unconstrained outer loop. A known distance d in
// index values is d/s iterations of a loop stepping by s, for both
// sides run one entry of it: none where s does not divide d, reversed
// for s < 0, either way for s unknown.
func testPair(a, b *Ref, emit func(Dep)) {
	common := commonDepth(a, b)
	var buf [8]distEntry
	dv := buf[:min(common, len(buf))]
	if common > len(buf) {
		dv = make([]distEntry, common)
	}
	if !distanceVector(a, b, dv) {
		return // provably independent
	}
	for i, e := range dv {
		level := i + 1
		if s := a.bounds[i].step; e.known && e.dist != 0 && s != 1 {
			switch {
			case s == 0:
				// carried here in one direction or the other
				emit(Dep{Src: a, Snk: b, Kind: depKind(a, b), Level: level})
				emit(Dep{Src: b, Snk: a, Kind: depKind(b, a), Level: level})
				return
			case e.dist%s != 0:
				return // the two never meet in one entry of the loop
			}
			e.dist /= s
		}
		switch {
		case e.unknown:
			// may be carried here in either direction; the ==0 case
			// continues to deeper levels
			emit(Dep{Src: a, Snk: b, Kind: depKind(a, b), Level: level})
			emit(Dep{Src: b, Snk: a, Kind: depKind(b, a), Level: level})
		case e.known && e.dist > 0:
			emit(Dep{Src: a, Snk: b, Kind: depKind(a, b), Level: level, Distance: e.dist, Known: true})
			return
		case e.known && e.dist < 0:
			emit(Dep{Src: b, Snk: a, Kind: depKind(b, a), Level: level, Distance: -e.dist, Known: true})
			return
		}
		// distance 0 (or the ==0 branch of unknown): keep scanning
	}
	// all components zero: loop-independent; source precedes sink
	src, snk := a, b
	if src.Order > snk.Order {
		src, snk = snk, src
	} else if src.Order == snk.Order && src.Stmt == snk.Stmt && src.IsWrite && !snk.IsWrite {
		// same statement, e.g. X(i) = F(X(i)): the read executes first
		src, snk = snk, src
	}
	emit(Dep{Src: src, Snk: snk, Kind: depKind(src, snk), Level: 0, Known: true})
}

func depKind(src, snk *Ref) Kind {
	switch {
	case src.IsWrite && snk.IsWrite:
		return Output
	case src.IsWrite:
		return True
	default:
		return Anti
	}
}

// commonDepth counts the loops enclosing both references (identical
// *ast.Do pointers): a.Nest[:n] and b.Nest[:n] are the common nest.
func commonDepth(a, b *Ref) int {
	n := min(len(a.Nest), len(b.Nest))
	for i := 0; i < n; i++ {
		if a.Nest[i] != b.Nest[i] {
			return i
		}
	}
	return n
}

// distEntry is one component of a distance vector.
type distEntry struct {
	dist    int
	known   bool // exact distance
	unknown bool // direction unknown ('*')
}

// distanceVector fills dv, one entry per common loop (zeroed by the
// caller), with the distance vector of the access pair, or reports
// independence (false). Loop levels not constrained by any subscript
// pair are conservatively marked unknown ('*'): the dependence may be
// carried there in either direction.
//
// It reads only the references' memoised forms. In those, the index of
// a common loop is the same Loop position on both sides; the indices of
// a reference's own deeper loops are distinct iteration instances even
// when two separate loops share a name ("do i" twice), which holds by
// construction because they sit at positions >= len(dv) of different
// nests and are never compared across sides.
func distanceVector(a, b *Ref, dv []distEntry) bool {
	common := len(dv)
	if len(a.Subs) != len(b.Subs) {
		// reshaped access: assume dependence with unknown direction
		for i := range dv {
			dv[i] = distEntry{unknown: true}
		}
		return true
	}
	for d := range a.Subs {
		la, lb := &a.Subs[d], &b.Subs[d]
		if !la.OK || !lb.OK {
			continue // non-affine dimension constrains nothing
		}
		// The two references execute at distinct iteration vectors, so
		// loop-index coefficients are NOT cancelled between la and lb:
		// loop index v contributes caA·v_a − caB·v_b. Only
		// loop-invariant symbolic terms cancel. levels counts the
		// common loops either side varies with, outermost first.
		levels, lv := 0, -1
		for i := 0; i < common; i++ {
			if la.LoopCoef(i) != 0 || lb.LoopCoef(i) != 0 {
				if levels == 0 {
					lv = i
				}
				levels++
			}
		}
		otherSymbolic := len(la.Loop) > common || len(lb.Loop) > common ||
			!sameTerms(la.Terms, lb.Terms)
		konst := la.Const - lb.Const // kA − kB
		switch {
		case otherSymbolic:
			// a symbolic term that does not cancel usually yields no
			// information — but when exactly one loop variable is
			// involved, the pinned solution may still be provably
			// outside the loop bounds (dgefa's a(i,j) vs a(k,j) with
			// i = k+1..n)
			if levels == 1 && weakZeroDisproved(la, lb, lv, common, &a.bounds[lv]) {
				return false
			}
			continue
		case levels == 0:
			// ZIV: independent iff the constant difference is nonzero
			if konst != 0 {
				return false
			}
		case levels == 1:
			caA, caB := la.LoopCoef(lv), lb.LoopCoef(lv)
			if caA == caB && caA != 0 {
				// strong SIV: a·ia + kA = a·ib + kB
				// ⇒ dist = ib − ia = (kA − kB)/a
				if konst%caA != 0 {
					return false // no integer solution: independent
				}
				dist := konst / caA
				if dv[lv].known && dv[lv].dist != dist {
					return false // inconsistent constraints
				}
				dv[lv] = distEntry{dist: dist, known: true}
			} else {
				// weak SIV: when one side is loop-invariant the only
				// dependence solution pins the variant side's
				// iteration to a symbolic value; if loop bounds prove
				// that value is outside the loop, no dependence
				// exists (e.g. dgefa's a(i,j) vs a(k,j) with
				// i = k+1..n).
				if weakZeroDisproved(la, lb, lv, common, &a.bounds[lv]) {
					return false
				}
				g := gcd(abs(caA), abs(caB))
				if g != 0 && konst%g != 0 {
					return false
				}
				dv[lv] = distEntry{unknown: true}
			}
		default:
			// MIV: GCD test for feasibility, direction unknown
			g := 0
			for i := lv; i < common; i++ {
				g = gcd(g, abs(la.LoopCoef(i)))
				g = gcd(g, abs(lb.LoopCoef(i)))
			}
			if g != 0 && konst%g != 0 {
				return false
			}
			for i := lv; i < common; i++ {
				if la.LoopCoef(i) != 0 || lb.LoopCoef(i) != 0 {
					dv[i] = distEntry{unknown: true}
				}
			}
		}
	}
	// unconstrained levels: the references touch overlapping data on
	// every iteration of those loops, so a dependence may be carried
	// there in either direction
	for i := range dv {
		if !dv[i].known && !dv[i].unknown {
			dv[i] = distEntry{unknown: true}
		}
	}
	return true
}

// weakZeroDisproved handles the weak-zero SIV case at common loop lv:
// if exactly one side varies with the loop (unit coefficient) and the
// pinned solution iteration provably lies outside the loop bounds, the
// references are independent.
func weakZeroDisproved(la, lb *SubForm, lv, common int, loop *loopBounds) bool {
	variant, invariant := la, lb
	ca := la.LoopCoef(lv)
	if cb := lb.LoopCoef(lv); ca == 0 && cb != 0 {
		variant, invariant = lb, la
		ca = cb
	} else if ca == 0 || cb != 0 {
		return false
	}
	if ca != 1 && ca != -1 {
		return false
	}
	// the index of a loop only one side is in cannot cancel against
	// anything: the solution is not comparable with the bounds
	if len(la.Loop) > common || len(lb.Loop) > common {
		return false
	}
	// solution: ca·i + rest = invariant ⇒ i = ca·(invariant − rest),
	// rest being variant without its lv term. diff is bound − solution.
	diff := func(bound *SubForm) (int, bool) {
		if !bound.OK {
			return 0, false
		}
		for d := 0; d < common; d++ {
			sol := invariant.LoopCoef(d)
			if d != lv {
				sol -= variant.LoopCoef(d)
			}
			if bound.LoopCoef(d) != ca*sol {
				return 0, false
			}
		}
		if !termsCancel(bound.Terms, invariant.Terms, variant.Terms, ca) {
			return 0, false
		}
		return bound.Const - ca*(invariant.Const-variant.Const), true
	}
	if d, isConst := diff(&loop.lo); isConst && d >= 1 {
		return true // solution below the loop's first iteration
	}
	if d, isConst := diff(&loop.hi); isConst && -d >= 1 {
		return true // solution above the loop's last iteration
	}
	return false
}

// termsCancel reports whether x − ca·(y − z) has no symbolic part: a
// three-way merge over the sorted term lists.
func termsCancel(x, y, z []Term, ca int) bool {
	for len(x) > 0 || len(y) > 0 || len(z) > 0 {
		name := ""
		for _, l := range [3][]Term{x, y, z} {
			if len(l) > 0 && (name == "" || l[0].Name < name) {
				name = l[0].Name
			}
		}
		sum := 0
		if len(x) > 0 && x[0].Name == name {
			sum += x[0].Coef
			x = x[1:]
		}
		if len(y) > 0 && y[0].Name == name {
			sum -= ca * y[0].Coef
			y = y[1:]
		}
		if len(z) > 0 && z[0].Name == name {
			sum += ca * z[0].Coef
			z = z[1:]
		}
		if sum != 0 {
			return false
		}
	}
	return true
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
