package depend

// The map-based affine form and pair test this package used before the
// dense Affine (PR 14), kept verbatim — renamed with an "old" prefix —
// as the oracle for TestAffineMatchesMapForm and FuzzAffine. It
// re-linearizes both subscripts of every tested pair into fresh maps
// and walks all n² reference pairs; do not use it outside tests.

import (
	"fortd/internal/ast"
)

// Analyze computes all pairwise dependences among array references in
// proc. env supplies PARAMETER constants for subscript evaluation.
func oldAnalyze(proc *ast.Procedure, env ast.Env) *depList {
	refs := CollectRefs(ast.NewIndex(proc), env)
	info := &depList{Refs: refs}
	for i, a := range refs {
		for j, b := range refs {
			if i == j || a.Expr.Name != b.Expr.Name {
				continue
			}
			if !a.IsWrite && !b.IsWrite {
				continue
			}
			// classify with a as source only when a writes or b writes;
			// test each ordered pair once (i < j covers both orders via
			// the symmetric call below), so restrict to i < j and try
			// both directions inside testPair.
			if i < j {
				info.oldTestPair(a, b, env)
			}
		}
	}
	return info
}

// testPair tests the ordered reference pair and appends any
// dependences. An unknown ('*') distance-vector component expands into
// all three direction cases: carried at that level in either direction,
// plus "equal at that level", which continues the scan into the deeper
// levels — so an exact inner-loop distance is never masked by an
// unconstrained outer loop.
func (in *depList) oldTestPair(a, b *Ref, env ast.Env) {
	common := oldCommonNest(a, b)
	dv, ok := oldDistanceVector(a, b, common, env)
	if !ok {
		return // provably independent
	}
	for i, e := range dv {
		level := i + 1
		// a distance in index values is one of d/s iterations, none
		// where the step s does not divide it, either way where s is
		// not a known constant
		if s, ok := oldStep(common[i], env); e.known && e.dist != 0 && s != 1 {
			if !ok {
				in.Deps = append(in.Deps,
					Dep{Src: a, Snk: b, Kind: depKind(a, b), Level: level},
					Dep{Src: b, Snk: a, Kind: depKind(b, a), Level: level},
				)
				return
			}
			if e.dist%s != 0 {
				return
			}
			e.dist /= s
		}
		switch {
		case e.unknown:
			// may be carried here in either direction; the ==0 case
			// continues to deeper levels
			in.Deps = append(in.Deps,
				Dep{Src: a, Snk: b, Kind: depKind(a, b), Level: level},
				Dep{Src: b, Snk: a, Kind: depKind(b, a), Level: level},
			)
		case e.known && e.dist > 0:
			in.Deps = append(in.Deps, Dep{
				Src: a, Snk: b, Kind: depKind(a, b),
				Level: level, Distance: e.dist, Known: true,
			})
			return
		case e.known && e.dist < 0:
			in.Deps = append(in.Deps, Dep{
				Src: b, Snk: a, Kind: depKind(b, a),
				Level: level, Distance: -e.dist, Known: true,
			})
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
	in.Deps = append(in.Deps, Dep{
		Src: src, Snk: snk, Kind: depKind(src, snk),
		Level: 0, Known: true,
	})
}

// commonNest returns the loops enclosing both references, outermost
// first (identical *ast.Do pointers).
func oldCommonNest(a, b *Ref) []*ast.Do {
	n := len(a.Nest)
	if len(b.Nest) < n {
		n = len(b.Nest)
	}
	var out []*ast.Do
	for i := 0; i < n; i++ {
		if a.Nest[i] != b.Nest[i] {
			break
		}
		out = append(out, a.Nest[i])
	}
	return out
}

// distanceVector computes the distance vector of the access pair over
// the common loop nest, or reports independence (ok=false). Loop
// levels not constrained by any subscript pair are conservatively
// marked unknown ('*'): the dependence may be carried there in either
// direction.
func oldDistanceVector(a, b *Ref, common []*ast.Do, env ast.Env) ([]distEntry, bool) {
	dv := make([]distEntry, len(common))
	vars := make([]string, len(common))
	for i, l := range common {
		vars[i] = l.Var
	}
	constrained := make([]bool, len(common))

	nd := len(a.Expr.Subs)
	if len(b.Expr.Subs) != nd {
		// reshaped access: assume dependence with unknown direction
		for i := range dv {
			dv[i] = distEntry{unknown: true}
		}
		return dv, true
	}
	for d := 0; d < nd; d++ {
		la, okA := oldLinearize(a.Expr.Subs[d], env)
		lb, okB := oldLinearize(b.Expr.Subs[d], env)
		if !okA || !okB {
			continue // non-affine dimension constrains nothing
		}
		// Loop indices of loops NOT common to both references are
		// distinct iteration instances even when they share a name
		// (e.g. two separate "do i" loops): rename them per side so
		// they cannot cancel.
		la = oldRenameNonCommon(la, a, common, "·src")
		lb = oldRenameNonCommon(lb, b, common, "·snk")
		// The two references execute at distinct iteration vectors, so
		// loop-index coefficients must NOT be cancelled between la and
		// lb: a loop variable v contributes caA·v_a − caB·v_b. Only
		// loop-invariant symbolic terms cancel.
		otherSymbolic := false
		var levels []int
		for v := range oldUnionVars(la.coef, lb.coef) {
			ca, cb := la.coef[v], lb.coef[v]
			if ca == 0 && cb == 0 {
				continue
			}
			idx := oldIndexOf(vars, v)
			if idx >= 0 {
				levels = append(levels, idx)
			} else if ca != cb {
				otherSymbolic = true
			}
		}
		konst := la.konst - lb.konst // kA − kB
		switch {
		case otherSymbolic:
			// a symbolic term that does not cancel usually yields no
			// information — but when exactly one loop variable is
			// involved, the pinned solution may still be provably
			// outside the loop bounds (dgefa's a(i,j) vs a(k,j) with
			// i = k+1..n)
			if len(levels) == 1 && oldWeakZeroDisproved(la, lb, vars[levels[0]], common[levels[0]], env) {
				return nil, false
			}
			continue
		case len(levels) == 0:
			// ZIV: independent iff the constant difference is nonzero
			if konst != 0 {
				return nil, false
			}
		case len(levels) == 1:
			lv := levels[0]
			caA := la.coef[vars[lv]]
			caB := lb.coef[vars[lv]]
			if caA == caB && caA != 0 {
				// strong SIV: a·ia + kA = a·ib + kB
				// ⇒ dist = ib − ia = (kA − kB)/a
				if konst%caA != 0 {
					return nil, false // no integer solution: independent
				}
				dist := konst / caA
				if constrained[lv] && dv[lv].known && dv[lv].dist != dist {
					return nil, false // inconsistent constraints
				}
				dv[lv] = distEntry{dist: dist, known: true}
				constrained[lv] = true
			} else {
				// weak SIV: when one side is loop-invariant the only
				// dependence solution pins the variant side's
				// iteration to a symbolic value; if loop bounds prove
				// that value is outside the loop, no dependence
				// exists (e.g. dgefa's a(i,j) vs a(k,j) with
				// i = k+1..n).
				if oldWeakZeroDisproved(la, lb, vars[lv], common[lv], env) {
					return nil, false
				}
				g := gcd(abs(caA), abs(caB))
				if g != 0 && konst%g != 0 {
					return nil, false
				}
				dv[lv] = distEntry{unknown: true}
				constrained[lv] = true
			}
		default:
			// MIV: GCD test for feasibility, direction unknown
			g := 0
			for _, lv := range levels {
				g = gcd(g, abs(la.coef[vars[lv]]))
				g = gcd(g, abs(lb.coef[vars[lv]]))
			}
			if g != 0 && konst%g != 0 {
				return nil, false
			}
			for _, lv := range levels {
				dv[lv] = distEntry{unknown: true}
				constrained[lv] = true
			}
		}
	}
	// unconstrained levels: the references touch overlapping data on
	// every iteration of those loops, so a dependence may be carried
	// there in either direction
	for lv := range dv {
		if !constrained[lv] {
			dv[lv] = distEntry{unknown: true}
		}
	}
	return dv, true
}

// renameNonCommon gives loop indices of the reference's own (non-common)
// loops a side-specific name so the two iteration spaces stay distinct.
func oldRenameNonCommon(l oldLinear, r *Ref, common []*ast.Do, tag string) oldLinear {
	own := map[string]bool{}
	for _, loop := range r.Nest[len(common):] {
		own[loop.Var] = true
	}
	if len(own) == 0 {
		return l
	}
	out := oldLinear{coef: map[string]int{}, konst: l.konst}
	for v, c := range l.coef {
		if own[v] {
			out.coef[v+tag] = c
		} else {
			out.coef[v] = c
		}
	}
	return out
}

// weakZeroDisproved handles the weak-zero SIV case: if exactly one side
// varies with the loop (unit coefficient) and the pinned solution
// iteration provably lies outside the loop bounds, the references are
// independent.
func oldWeakZeroDisproved(la, lb oldLinear, v string, loop *ast.Do, env ast.Env) bool {
	caA, caB := la.coef[v], lb.coef[v]
	variant, invariant := la, lb
	ca := caA
	if caA == 0 && caB != 0 {
		variant, invariant = lb, la
		ca = caB
	} else if caA == 0 || caB != 0 {
		return false
	}
	if ca != 1 && ca != -1 {
		return false
	}
	// solution: ca·i + (variant \ v) = invariant  ⇒  i = (invariant − variantRest)/ca
	rest := oldLinear{coef: map[string]int{}, konst: variant.konst}
	for name, c := range variant.coef {
		if name != v {
			rest.coef[name] = c
		}
	}
	sol := invariant.minus(rest)
	if ca == -1 {
		neg := oldLinear{coef: map[string]int{}, konst: -sol.konst}
		for name, c := range sol.coef {
			neg.coef[name] = -c
		}
		sol = neg
	}
	first, last := loop.Lo, loop.Hi
	switch step, ok := oldStep(loop, env); {
	case !ok:
		return false
	case step < 0:
		first, last = last, first
	}
	if lo, ok := oldLinearize(first, env); ok {
		if d, isConst := oldConstantDiff(lo.minus(sol)); isConst && d >= 1 {
			return true // solution below the loop's first iteration
		}
	}
	if hi, ok := oldLinearize(last, env); ok {
		if d, isConst := oldConstantDiff(sol.minus(hi)); isConst && d >= 1 {
			return true // solution above the loop's last iteration
		}
	}
	return false
}

// oldStep is loop's step where it is a non-zero constant under env.
func oldStep(loop *ast.Do, env ast.Env) (int, bool) {
	if loop.Step == nil {
		return 1, true
	}
	l, ok := oldLinearize(loop.Step, env)
	if !ok {
		return 0, false
	}
	s, isConst := oldConstantDiff(l)
	return s, isConst && s != 0
}

// constantDiff reports whether a oldLinear form is a pure constant.
func oldConstantDiff(l oldLinear) (int, bool) {
	for _, c := range l.coef {
		if c != 0 {
			return 0, false
		}
	}
	return l.konst, true
}

func oldUnionVars(a, b map[string]int) map[string]struct{} {
	out := make(map[string]struct{}, len(a)+len(b))
	for v := range a {
		out[v] = struct{}{}
	}
	for v := range b {
		out[v] = struct{}{}
	}
	return out
}

type oldLinear struct {
	coef  map[string]int
	konst int
}

func (l oldLinear) minus(o oldLinear) oldLinear {
	out := oldLinear{coef: map[string]int{}, konst: l.konst - o.konst}
	for v, c := range l.coef {
		out.coef[v] += c
	}
	for v, c := range o.coef {
		out.coef[v] -= c
	}
	return out
}

// linearize puts e into the form Σ ci·vi + c, treating every identifier
// as a symbolic term. ok is false for non-affine expressions.
func oldLinearize(e ast.Expr, env ast.Env) (oldLinear, bool) {
	switch x := e.(type) {
	case *ast.IntLit:
		return oldLinear{coef: map[string]int{}, konst: x.Value}, true
	case *ast.Ident:
		if env != nil {
			if v, ok := env.Value(x.Name); ok {
				return oldLinear{coef: map[string]int{}, konst: v}, true
			}
		}
		return oldLinear{coef: map[string]int{x.Name: 1}, konst: 0}, true
	case *ast.Unary:
		if x.Op != "-" {
			return oldLinear{}, false
		}
		l, ok := oldLinearize(x.X, env)
		if !ok {
			return oldLinear{}, false
		}
		out := oldLinear{coef: map[string]int{}, konst: -l.konst}
		for v, c := range l.coef {
			out.coef[v] = -c
		}
		return out, true
	case *ast.Binary:
		a, okA := oldLinearize(x.X, env)
		b, okB := oldLinearize(x.Y, env)
		if !okA || !okB {
			return oldLinear{}, false
		}
		switch x.Op {
		case ast.OpAdd:
			out := a
			for v, c := range b.coef {
				out.coef[v] += c
			}
			out.konst += b.konst
			return out, true
		case ast.OpSub:
			return a.minus(b), true
		case ast.OpMul:
			// one side must be constant
			if len(a.coef) == 0 {
				out := oldLinear{coef: map[string]int{}, konst: a.konst * b.konst}
				for v, c := range b.coef {
					out.coef[v] = a.konst * c
				}
				return out, true
			}
			if len(b.coef) == 0 {
				out := oldLinear{coef: map[string]int{}, konst: a.konst * b.konst}
				for v, c := range a.coef {
					out.coef[v] = b.konst * c
				}
				return out, true
			}
			return oldLinear{}, false
		}
		return oldLinear{}, false
	}
	return oldLinear{}, false
}

// LinearSubscript exposes the affine decomposition of a subscript for
// other phases (partitioning, communication): sub = Coef·var + Konst.
// ok is false when the subscript is not of single-index affine form.
func oldLinearSubscript(e ast.Expr, env ast.Env) (variable string, coef, konst int, ok bool) {
	l, good := oldLinearize(e, env)
	if !good {
		return "", 0, 0, false
	}
	nonzero := 0
	for v, c := range l.coef {
		if c != 0 {
			nonzero++
			variable = v
			coef = c
		}
	}
	if nonzero > 1 {
		return "", 0, 0, false
	}
	return variable, coef, l.konst, true
}

func oldIndexOf(ss []string, s string) int {
	for i, v := range ss {
		if v == s {
			return i
		}
	}
	return -1
}
