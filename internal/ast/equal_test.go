package ast

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// fmtString is the printer this package had before it appended to byte
// slices: fmt verbs and string concatenation. It stays as the oracle for
// the append path and for ExprEqual, whose contract is "prints alike".
func fmtString(e Expr) string {
	switch x := e.(type) {
	case *Ident:
		return x.Name
	case *IntLit:
		return fmt.Sprintf("%d", x.Value)
	case *RealLit:
		return fmt.Sprintf("%g", x.Value)
	case *ArrayRef:
		return x.Name + "(" + fmtJoin(x.Subs) + ")"
	case *FuncCall:
		return x.Name + "(" + fmtJoin(x.Args) + ")"
	case *Binary:
		return fmt.Sprintf("(%s %s %s)", fmtString(x.X), x.Op.String(), fmtString(x.Y))
	case *Unary:
		return x.Op + fmtString(x.X)
	}
	return "?"
}

func fmtJoin(es []Expr) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = fmtString(e)
	}
	return strings.Join(parts, ",")
}

// randExpr draws from a deliberately tiny alphabet so that distinct
// trees printing alike (f(i) as call or reference, -1 as literal or
// negation, 2 as integer or real) come up constantly.
func randExpr(r *rand.Rand, depth int) Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(4) {
		case 0:
			return &Ident{Name: []string{"i", "j", "n", "my$p"}[r.Intn(4)]}
		case 1:
			return &IntLit{Value: r.Intn(5) - 2}
		case 2:
			return &RealLit{Value: []float64{-2, -1, 0, 1, 2, 0.5, 1e300, -1e300, 1e-7, 123456789, math.Inf(1), math.Inf(-1)}[r.Intn(12)]}
		default:
			return &Unary{Op: "-", X: &IntLit{Value: r.Intn(3)}}
		}
	}
	switch r.Intn(5) {
	case 0:
		return &Binary{Op: BinOp(r.Intn(int(OpOr) + 1)), X: randExpr(r, depth-1), Y: randExpr(r, depth-1)}
	case 1:
		return &Unary{Op: []string{"-", ".NOT."}[r.Intn(2)], X: randExpr(r, depth-1)}
	case 2:
		return &ArrayRef{Name: []string{"a", "f"}[r.Intn(2)], Subs: randArgs(r, depth)}
	case 3:
		return &FuncCall{Name: []string{"f", "MOD"}[r.Intn(2)], Args: randArgs(r, depth)}
	}
	return randExpr(r, 0)
}

func randArgs(r *rand.Rand, depth int) []Expr {
	args := make([]Expr, r.Intn(3))
	for i := range args {
		args[i] = randExpr(r, depth-1)
	}
	return args
}

func TestAppendMatchesFmtPrinter(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		e := randExpr(r, 4)
		if got, want := e.String(), fmtString(e); got != want {
			t.Fatalf("String() = %q, fmt printer %q", got, want)
		}
		if got := string(e.appendTo([]byte("x"))); got != "x"+fmtString(e) {
			t.Fatalf("appendTo = %q", got)
		}
	}
	for _, v := range []float64{0, math.Copysign(0, -1), 1, 0.1, 1e21, 1e20, 1e-5, 1e-4, 123456.7, 1234567.8, math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64} {
		e := &RealLit{Value: v}
		if e.String() != fmt.Sprintf("%g", v) {
			t.Errorf("RealLit %v prints %q, %%g %q", v, e.String(), fmt.Sprintf("%g", v))
		}
	}
}

func TestExprEqualIsPrintedEquality(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	equal := 0
	for i := 0; i < 200000; i++ {
		d := r.Intn(3)
		a, b := randExpr(r, d), randExpr(r, d)
		want := fmtString(a) == fmtString(b)
		if want {
			equal++
		}
		if ExprEqual(a, b) != want || ExprEqual(b, a) != want {
			t.Fatalf("ExprEqual(%s, %s) = %v, printed equality %v (%#v vs %#v)", a, b, ExprEqual(a, b), want, a, b)
		}
	}
	if equal < 1000 {
		t.Fatalf("only %d equal pairs drawn; the alphabet is too wide to test anything", equal)
	}
	if !ExprEqual(nil, nil) || ExprEqual(nil, Int(1)) || ExprEqual(Int(1), nil) {
		t.Error("nil handling")
	}
}
