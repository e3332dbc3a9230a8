package sched

import (
	"math/rand"
	"testing"

	"fortd/internal/ast"
)

// lin, linAdd and linOf are the affine form this package carried
// privately before it used depend.Affine: the repository's second
// lineariser. They stay as the oracle for the symbolic helpers that now
// go through the one form.

// lin is c + Σ coeff[v]·v c + Σ coeff[v]·v over integer identifiers.
type lin struct {
	c     int
	coeff map[string]int
}

func (l lin) scaled(k int) lin {
	out := lin{c: l.c * k}
	if len(l.coeff) > 0 {
		out.coeff = make(map[string]int, len(l.coeff))
		for v, c := range l.coeff {
			out.coeff[v] = c * k
		}
	}
	return out
}

func linAdd(a, b lin, sign int) lin {
	out := lin{c: a.c + sign*b.c, coeff: map[string]int{}}
	for v, c := range a.coeff {
		out.coeff[v] += c
	}
	for v, c := range b.coeff {
		out.coeff[v] += sign * c
	}
	for v, c := range out.coeff {
		if c == 0 {
			delete(out.coeff, v)
		}
	}
	return out
}

func linOf(e ast.Expr) (lin, bool) {
	switch x := e.(type) {
	case *ast.IntLit:
		return lin{c: x.Value}, true
	case *ast.Ident:
		return lin{coeff: map[string]int{x.Name: 1}}, true
	case *ast.Unary:
		if x.Op != "-" {
			return lin{}, false
		}
		l, ok := linOf(x.X)
		if !ok {
			return lin{}, false
		}
		return l.scaled(-1), true
	case *ast.Binary:
		a, okA := linOf(x.X)
		b, okB := linOf(x.Y)
		if !okA || !okB {
			return lin{}, false
		}
		switch x.Op {
		case ast.OpAdd:
			return linAdd(a, b, 1), true
		case ast.OpSub:
			return linAdd(a, b, -1), true
		case ast.OpMul:
			if len(a.coeff) == 0 {
				return b.scaled(a.c), true
			}
			if len(b.coeff) == 0 {
				return a.scaled(b.c), true
			}
		}
	}
	return lin{}, false
}

// oldOffsetFrom and oldAtLeast's affine tail, as they read on lin.
func oldOffsetFrom(e ast.Expr, v string) (int, bool) {
	l, ok := linOf(e)
	if !ok || len(l.coeff) != 1 || l.coeff[v] != 1 {
		return 0, false
	}
	return l.c, true
}

func oldDiffAtLeast(a, b ast.Expr, k int) bool {
	la, okA := linOf(a)
	lb, okB := linOf(b)
	if !okA || !okB {
		return false
	}
	d := linAdd(lb, la, -1)
	return len(d.coeff) == 0 && d.c >= k
}

// schedExpr draws the expressions the pass meets in generated code:
// sums and differences of identifiers and literals, literal multiples,
// the odd division or call. (A product with a factor that only
// simplifies to a constant — (i-i)*j — is the one place the two
// linearisers ever disagreed, with each other too; nothing generates
// it.)
func schedExpr(r *rand.Rand, depth int) ast.Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		if r.Intn(2) == 0 {
			return ast.Id([]string{"k", "j", "my$p", "n"}[r.Intn(4)])
		}
		return ast.Int(r.Intn(7) - 3)
	}
	switch r.Intn(8) {
	case 0, 1, 2:
		return &ast.Binary{Op: ast.OpAdd, X: schedExpr(r, depth-1), Y: schedExpr(r, depth-1)}
	case 3, 4:
		return &ast.Binary{Op: ast.OpSub, X: schedExpr(r, depth-1), Y: schedExpr(r, depth-1)}
	case 5:
		return &ast.Binary{Op: ast.OpMul, X: ast.Int(r.Intn(5) - 2), Y: schedExpr(r, depth-1)}
	case 6:
		return &ast.Unary{Op: "-", X: schedExpr(r, depth-1)}
	}
	if r.Intn(2) == 0 {
		return &ast.Binary{Op: ast.OpDiv, X: schedExpr(r, depth-1), Y: ast.Int(2)}
	}
	return &ast.FuncCall{Name: "MOD", Args: []ast.Expr{schedExpr(r, depth-1), ast.Int(4)}}
}

func TestSymbolicHelpersMatchLin(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	offsets, proofs := 0, 0
	for i := 0; i < 100000; i++ {
		a, b := schedExpr(r, 3), schedExpr(r, 3)
		for _, v := range []string{"k", "my$p"} {
			c, ok := offsetFrom(a, v)
			wc, wok := oldOffsetFrom(a, v)
			if ok != wok || (ok && c != wc) {
				t.Fatalf("offsetFrom(%s, %s) = %d,%v; on lin %d,%v", a, v, c, ok, wc, wok)
			}
			if ok {
				offsets++
			}
		}
		for k := -1; k <= 1; k++ {
			got, want := atLeast(a, b, k), oldDiffAtLeast(a, b, k)
			if got != want {
				t.Fatalf("atLeast(%s, %s, %d) = %v; on lin %v", a, b, k, got, want)
			}
			if got {
				proofs++
			}
		}
	}
	if offsets < 1000 || proofs < 1000 {
		t.Errorf("%d offsets and %d proofs found: the generator tests too little", offsets, proofs)
	}
}
