package ast

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEvalIntBasics(t *testing.T) {
	cases := []struct {
		e    Expr
		env  Env
		want int
		ok   bool
	}{
		{Int(7), nil, 7, true},
		{Add(Int(2), Int(3)), nil, 5, true},
		{Sub(Int(2), Int(3)), nil, -1, true},
		{Mul(Int(4), Int(3)), nil, 12, true},
		{&Binary{Op: OpDiv, X: Int(7), Y: Int(2)}, nil, 3, true},
		{&Binary{Op: OpPow, X: Int(2), Y: Int(10)}, nil, 1024, true},
		{&Unary{Op: "-", X: Int(5)}, nil, -5, true},
		{Id("n"), MapEnv{"n": 42}, 42, true},
		{Id("n"), nil, 0, false},
		{Min(Int(3), Int(9)), nil, 3, true},
		{Max(Int(3), Int(9)), nil, 9, true},
		{&FuncCall{Name: "MOD", Args: []Expr{Int(17), Int(5)}}, nil, 2, true},
	}
	for _, c := range cases {
		got, ok := EvalInt(c.e, c.env)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("EvalInt(%s) = %d,%v want %d,%v", c.e, got, ok, c.want, c.ok)
		}
	}
}

// TestFoldingIdentities: the constructors fold constants and elide
// identities so generated code stays readable.
func TestFoldingIdentities(t *testing.T) {
	if got := Add(Id("x"), Int(0)); got.String() != "x" {
		t.Errorf("x+0 = %s", got)
	}
	if got := Mul(Int(1), Id("x")); got.String() != "x" {
		t.Errorf("1*x = %s", got)
	}
	if got := Mul(Int(0), Id("x")); got.String() != "0" {
		t.Errorf("0*x = %s", got)
	}
	if got := Sub(Id("x"), Int(0)); got.String() != "x" {
		t.Errorf("x-0 = %s", got)
	}
	if got := Add(Int(2), Int(3)); got.String() != "5" {
		t.Errorf("2+3 = %s", got)
	}
}

// Property: folded arithmetic matches direct arithmetic.
func TestFoldProperty(t *testing.T) {
	f := func(a, b int16) bool {
		x, y := int(a), int(b)
		s, ok := EvalInt(Add(Int(x), Int(y)), nil)
		if !ok || s != x+y {
			return false
		}
		m, ok := EvalInt(Mul(Int(x), Int(y)), nil)
		return ok && m == x*y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCloneExprIndependence(t *testing.T) {
	orig := &Binary{Op: OpAdd, X: Id("i"), Y: Int(5)}
	cp := CloneExpr(orig).(*Binary)
	cp.Y = Int(9)
	if orig.Y.String() != "5" {
		t.Error("clone shares structure with original")
	}
}

func TestSubstituteExpr(t *testing.T) {
	e := &Binary{Op: OpAdd, X: Id("i"), Y: Int(5)}
	got := Subst(e, map[string]Expr{"i": Int(10)})
	v, ok := EvalInt(got, nil)
	if !ok || v != 15 {
		t.Errorf("substitute = %s", got)
	}
	if e.String() != "(i + 5)" {
		t.Errorf("substitution rewrote its input: %s", e)
	}
	// array names are not substituted
	ar := &ArrayRef{Name: "i", Subs: []Expr{Id("i")}}
	got2 := Subst(ar, map[string]Expr{"i": Int(3)}).(*ArrayRef)
	if got2.Name != "i" {
		t.Error("array name wrongly substituted")
	}
	if got2.Subs[0].String() != "3" {
		t.Error("subscript not substituted")
	}
}

func TestCloneStmtDeep(t *testing.T) {
	do := &Do{
		Var: "i", Lo: Int(1), Hi: Int(10),
		Body: []Stmt{
			&Assign{Lhs: &ArrayRef{Name: "X", Subs: []Expr{Id("i")}}, Rhs: Int(0)},
		},
	}
	cp := CloneStmt(do).(*Do)
	cp.Body[0] = &Assign{Lhs: Id("y"), Rhs: Int(9)}
	cp.Hi = Int(5)
	if do.Body[0].(*Assign).Rhs.String() != "0" || do.Hi.String() != "10" {
		t.Error("CloneStmt shares the loop or its body")
	}
}

func TestCloneProcedure(t *testing.T) {
	syms := NewSymbolTable()
	syms.Define(&Symbol{Name: "X", Kind: SymArray, Dims: []Extent{{Lo: Int(1), Hi: Int(100)}}, IsFormal: true, FormalIndex: 0})
	p := &Procedure{
		Name: "F1", Params: []string{"X"}, Symbols: syms,
		Body: []Stmt{&Assign{Lhs: &ArrayRef{Name: "X", Subs: []Expr{Int(1)}}, Rhs: Int(0)}},
	}
	c := CloneProcedure(p, "F1$row")
	if c.Name != "F1$row" || len(c.Body) != 1 {
		t.Fatalf("clone = %+v", c)
	}
	c.Symbols.Lookup("X").Dims[0] = Extent{Lo: Int(1), Hi: Int(30)}
	if p.Symbols.Lookup("X").Dims[0].Hi.String() != "100" {
		t.Error("clone shares symbol dims")
	}
}

func TestWalkStmtsPruning(t *testing.T) {
	body := []Stmt{
		&Do{Var: "i", Lo: Int(1), Hi: Int(2), Body: []Stmt{
			&Assign{Lhs: Id("x"), Rhs: Int(1)},
		}},
		&Assign{Lhs: Id("y"), Rhs: Int(2)},
	}
	var all, pruned int
	WalkStmts(body, func(s Stmt) bool { all++; return true })
	WalkStmts(body, func(s Stmt) bool { pruned++; return false })
	if all != 3 {
		t.Errorf("all = %d", all)
	}
	if pruned != 2 {
		t.Errorf("pruned = %d (children must be skipped)", pruned)
	}
}

func TestSymbolTableOrder(t *testing.T) {
	tb := NewSymbolTable()
	tb.Define(&Symbol{Name: "b"})
	tb.Define(&Symbol{Name: "a"})
	tb.Define(&Symbol{Name: "b"}) // redefinition keeps position
	syms := tb.Symbols()
	if len(syms) != 2 || syms[0].Name != "b" || syms[1].Name != "a" {
		t.Errorf("order = %v", tb.Order)
	}
}

func TestExprStrings(t *testing.T) {
	e := &Binary{Op: OpLE, X: Id("i"), Y: &Binary{Op: OpMul, X: Id("b"), Y: Int(25)}}
	if got := e.String(); got != "(i .LE. (b * 25))" {
		t.Errorf("String = %q", got)
	}
	u := &Unary{Op: ".NOT.", X: Id("p")}
	if u.String() != ".NOT.p" {
		t.Errorf("unary = %q", u)
	}
}

func TestPrintProgramStructure(t *testing.T) {
	syms := NewSymbolTable()
	syms.Define(&Symbol{Name: "X", Kind: SymArray, Type: TypeReal, Dims: []Extent{{Lo: Int(1), Hi: Int(8)}}})
	main := &Procedure{
		Name: "P", IsMain: true, Symbols: syms,
		Body: []Stmt{
			&Message{Op: MsgSend, Array: "X", Sec: []SecDim{{Lo: Int(1), Hi: Int(4)}}, Peer: Int(1)},
			&Remap{Array: "X", To: []DistSpec{{Kind: ast_DistCyclic}}},
		},
	}
	text := Print(NewProgram([]*Procedure{main}))
	for _, want := range []string{"PROGRAM P", "REAL X(8)", "send X(1:4) to 1", "remap X(CYCLIC)", "END"} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
}

// TestMessageSize: Op and Tag share one word, so a message statement is
// no larger than the largest of the node types it replaced.
func TestMessageSize(t *testing.T) {
	if n := unsafe.Sizeof(Message{}); n > 80 {
		t.Errorf("Message is %d bytes, want at most 80", n)
	}
}

// alias to keep the composite literal readable above
const ast_DistCyclic = DistCyclic

// TestStmtExprsCoversEveryKind plants a leaf in every expression-typed
// field of every statement kind (an Expr, an element of an []Expr, a
// bound of a []SecDim) and checks that WalkExprs visits each one: a
// kind or a field StmtExprs forgets is invisible to every analysis that
// asks "where is this variable used".
func TestStmtExprsCoversEveryKind(t *testing.T) {
	kinds := []Stmt{
		&Assign{}, &Do{}, &If{}, &Call{}, &Return{},
		&Decomposition{}, &Align{}, &Distribute{},
		&Message{}, &GlobalReduce{}, &Remap{},
	}
	exprType := reflect.TypeOf((*Expr)(nil)).Elem()
	for _, s := range kinds {
		planted := 0
		leaf := func() Expr { planted++; return Id("leaf$") }
		v := reflect.ValueOf(s).Elem()
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			switch {
			case !f.CanSet():
			case f.Type() == exprType:
				f.Set(reflect.ValueOf(leaf()))
			case f.Type() == reflect.TypeOf([]Expr(nil)):
				f.Set(reflect.ValueOf([]Expr{leaf(), leaf()}))
			case f.Type() == reflect.TypeOf([]SecDim(nil)):
				f.Set(reflect.ValueOf([]SecDim{{Lo: leaf(), Hi: leaf()}, {Lo: leaf(), Hi: leaf()}}))
			}
		}
		visited := 0
		WalkExprs([]Stmt{s}, func(e Expr) {
			if id, ok := e.(*Ident); ok && id.Name == "leaf$" {
				visited++
			}
		})
		if visited != planted {
			t.Errorf("%T: %d expression leaves planted, WalkExprs visits %d", s, planted, visited)
		}
	}
}

// TestNorm reads the normal form of loops counting up, down, by a
// stride, by a PARAMETER and by a step not known, and whether a loop
// holds a RETURN; the trip count and exit value are F77's.
func TestNorm(t *testing.T) {
	env := MapEnv{"ns": 1, "m": -3}
	ret := []Stmt{&If{Cond: Id("k"), Then: []Stmt{&Return{}}}}
	for _, c := range []struct {
		loop                 *Do
		step, min, max, trip int
		low, high            string
		isConst, returns     bool
	}{
		{&Do{Lo: Int(1), Hi: Int(16)}, 1, 1, 16, 16, "1", "16", true, false},
		{&Do{Lo: Int(5), Hi: Int(1)}, 1, 5, 4, 0, "5", "1", true, false},
		{&Do{Lo: Int(1), Hi: Int(24), Step: Int(2)}, 2, 1, 23, 12, "1", "24", true, false},
		{&Do{Lo: Int(23), Hi: Int(1), Step: &Unary{Op: "-", X: Int(1)}}, -1, 1, 23, 23, "1", "23", true, false},
		{&Do{Lo: Int(24), Hi: Int(2), Step: Id("m")}, -3, 3, 24, 8, "2", "24", true, false},
		{&Do{Lo: Int(1), Hi: Int(8), Step: Id("m")}, -3, 4, 1, 0, "8", "1", true, false},
		{&Do{Lo: Int(2), Hi: Id("n"), Step: Id("ns")}, 1, 0, 0, -1, "2", "n", false, false},
		{&Do{Lo: Int(8), Hi: Int(1), Step: Id("s")}, 0, 1, 8, -1, "<nil>", "<nil>", true, false},
		{&Do{Lo: Int(1), Hi: Int(16), Body: ret}, 1, 1, 16, 16, "1", "16", true, true},
	} {
		n := c.loop.Norm(env)
		str := func(e Expr) string {
			if e == nil {
				return "<nil>"
			}
			return e.String()
		}
		got := []any{n.Step, n.Min, n.Max, n.Trip, str(n.Low), str(n.High), n.Const, c.loop.Returns()}
		want := []any{c.step, c.min, c.max, c.trip, c.low, c.high, c.isConst, c.returns}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("do = %v, %v, %v: (step, min, max, trip, low, high, const, returns) = %v, want %v", c.loop.Lo, c.loop.Hi, c.loop.Step, got, want)
		}
		if n.Trip >= 0 {
			lo, _ := EvalInt(c.loop.Lo, env)
			count, i := 0, lo
			for ; n.Step > 0 && i <= n.Max || n.Step < 0 && i >= n.Min; i += n.Step {
				count++
			}
			if count != n.Trip || Exit(lo, n.Trip, n.Step) != i {
				t.Errorf("do = %v, %v, %v: %d iterations ending at %d, Trip %d and Exit %d", c.loop.Lo, c.loop.Hi, c.loop.Step, count, i, n.Trip, Exit(lo, n.Trip, n.Step))
			}
		}
	}
}
