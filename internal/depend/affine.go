package depend

import (
	"fortd/internal/ast"
)

// Affine is an integer expression in the form
//
//	Const + Σ Loop[d]·i_d + Σ Terms[k].Coef·Terms[k].Name
//
// where i_d is the index of the d-th loop of the nest the expression
// was linearized over (outermost first) and Terms holds every other
// identifier, sorted by name. It is the repository's one affine
// implementation: the dependence tests read it through Ref.Subs,
// partitioning, communication analysis, code generation and overlap
// estimation through LinearSubscript, the schedule pass directly.
//
// An Affine is a value. No operation writes through the slices of a
// form it was given — results get storage of their own — so a form may
// be kept (Ref.Subs keeps one per subscript for the life of an
// analysis) and handed to any number of readers. Loop is trimmed of
// trailing zeros and Terms of zero coefficients, so equal expressions
// have equal forms.
type Affine struct {
	Const int
	Loop  []int
	Terms []Term
}

// Term is one symbolic identifier and its coefficient.
type Term struct {
	Name string
	Coef int
}

// Linearize puts e into affine form. Identifiers with a value in env
// (PARAMETER constants) fold into the constant; an identifier naming a
// loop of nest is bound to the innermost such loop; every other
// identifier is a symbolic term. ok is false when e is not affine: it
// contains a real literal, an array reference, a call, a division, or
// a product neither of whose sides is a constant expression.
func Linearize(e ast.Expr, env ast.Env, nest []*ast.Do) (Affine, bool) {
	var a Affine
	if !a.add(e, 1, env, nest) {
		return Affine{}, false
	}
	a.normalize()
	return a, true
}

// add accumulates k·e into a form under construction: Loop, once an
// index of nest turns up, has one entry per loop of nest, and Terms is
// unsorted and may hold zero coefficients, until normalize. The
// storage is the result's own, so linearizing allocates nothing else.
func (a *Affine) add(e ast.Expr, k int, env ast.Env, nest []*ast.Do) bool {
	switch x := e.(type) {
	case *ast.IntLit:
		a.Const += k * x.Value
		return true
	case *ast.Ident:
		if env != nil {
			if v, ok := env.Value(x.Name); ok {
				a.Const += k * v
				return true
			}
		}
		for d := len(nest) - 1; d >= 0; d-- {
			if nest[d].Var == x.Name {
				if a.Loop == nil {
					a.Loop = make([]int, len(nest))
				}
				a.Loop[d] += k
				return true
			}
		}
		for i := range a.Terms {
			if a.Terms[i].Name == x.Name {
				a.Terms[i].Coef += k
				return true
			}
		}
		a.Terms = append(a.Terms, Term{Name: x.Name, Coef: k})
		return true
	case *ast.Unary:
		return x.Op == "-" && a.add(x.X, -k, env, nest)
	case *ast.Binary:
		switch x.Op {
		case ast.OpAdd:
			return a.add(x.X, k, env, nest) && a.add(x.Y, k, env, nest)
		case ast.OpSub:
			return a.add(x.X, k, env, nest) && a.add(x.Y, -k, env, nest)
		case ast.OpMul:
			// one side must be a constant expression; the other must
			// still be affine even when the constant is zero
			if c, ok := constFold(x.X, env); ok {
				return a.add(x.Y, k*c, env, nest)
			}
			if c, ok := constFold(x.Y, env); ok {
				return a.add(x.X, k*c, env, nest)
			}
		}
	}
	return false
}

// normalize trims Loop of trailing zeros, drops zero terms and sorts
// the rest by name (insertion sort: a subscript has a handful).
func (a *Affine) normalize() {
	n := len(a.Loop)
	for n > 0 && a.Loop[n-1] == 0 {
		n--
	}
	a.Loop = a.Loop[:n:n]
	if n == 0 {
		a.Loop = nil
	}
	live := a.Terms[:0]
	for _, t := range a.Terms {
		if t.Coef == 0 {
			continue
		}
		i := len(live)
		live = append(live, t)
		for ; i > 0 && live[i-1].Name > t.Name; i-- {
			live[i] = live[i-1]
		}
		live[i] = t
	}
	a.Terms = live
	if len(live) == 0 {
		a.Terms = nil
	}
}

// constFold evaluates an expression built from integer literals,
// PARAMETER constants, negation, sums, differences and products only.
func constFold(e ast.Expr, env ast.Env) (int, bool) {
	switch x := e.(type) {
	case *ast.IntLit:
		return x.Value, true
	case *ast.Ident:
		if env != nil {
			return env.Value(x.Name)
		}
	case *ast.Unary:
		if x.Op == "-" {
			v, ok := constFold(x.X, env)
			return -v, ok
		}
	case *ast.Binary:
		if x.Op != ast.OpAdd && x.Op != ast.OpSub && x.Op != ast.OpMul {
			return 0, false
		}
		l, okL := constFold(x.X, env)
		r, okR := constFold(x.Y, env)
		if !okL || !okR {
			return 0, false
		}
		switch x.Op {
		case ast.OpAdd:
			return l + r, true
		case ast.OpSub:
			return l - r, true
		}
		return l * r, true
	}
	return 0, false
}

// LoopCoef returns the coefficient of the d-th loop index.
func (a *Affine) LoopCoef(d int) int {
	if d < len(a.Loop) {
		return a.Loop[d]
	}
	return 0
}

// IsConst reports whether the form has no variable part.
func (a *Affine) IsConst() bool { return len(a.Loop) == 0 && len(a.Terms) == 0 }

// Single decomposes a form linearized over no nest as coef·variable +
// konst. ok is false when more than one identifier remains; a constant
// has variable "" and coef 0.
func (a *Affine) Single() (variable string, coef, konst int, ok bool) {
	switch len(a.Terms) {
	case 0:
		return "", 0, a.Const, true
	case 1:
		return a.Terms[0].Name, a.Terms[0].Coef, a.Const, true
	}
	return "", 0, 0, false
}

// Minus returns a − o. Both forms must be linearized over the same
// nest (or none).
func (a *Affine) Minus(o *Affine) Affine {
	out := Affine{Const: a.Const - o.Const}
	n := max(len(a.Loop), len(o.Loop))
	for n > 0 && a.LoopCoef(n-1) == o.LoopCoef(n-1) {
		n--
	}
	if n > 0 {
		out.Loop = make([]int, n)
		for d := range out.Loop {
			out.Loop[d] = a.LoopCoef(d) - o.LoopCoef(d)
		}
	}
	i, j := 0, 0
	for i < len(a.Terms) || j < len(o.Terms) {
		var t Term
		switch {
		case j == len(o.Terms) || (i < len(a.Terms) && a.Terms[i].Name < o.Terms[j].Name):
			t = a.Terms[i]
			i++
		case i == len(a.Terms) || o.Terms[j].Name < a.Terms[i].Name:
			t = Term{Name: o.Terms[j].Name, Coef: -o.Terms[j].Coef}
			j++
		default:
			t = Term{Name: a.Terms[i].Name, Coef: a.Terms[i].Coef - o.Terms[j].Coef}
			i++
			j++
		}
		if t.Coef != 0 {
			out.Terms = append(out.Terms, t)
		}
	}
	return out
}

// sameTerms reports whether two forms have the same symbolic part.
func sameTerms(a, b []Term) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// LinearSubscript is the affine decomposition other phases ask for
// (partitioning, communication, overlaps): sub = coef·variable + konst
// over identifiers by name. ok is false when the subscript is not of
// single-index affine form.
func LinearSubscript(e ast.Expr, env ast.Env) (variable string, coef, konst int, ok bool) {
	l, good := Linearize(e, env, nil)
	if !good {
		return "", 0, 0, false
	}
	return l.Single()
}
