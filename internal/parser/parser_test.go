package parser

import (
	"strings"
	"testing"

	"fortd/internal/ast"
)

// fig1Src is the paper's Figure 1 program verbatim (modulo layout).
const fig1Src = `
      PROGRAM P1
      REAL X(100)
      PARAMETER (n$proc = 4)
      DISTRIBUTE X(BLOCK)
      call F1(X)
      END
      SUBROUTINE F1(X)
      REAL X(100)
      do i = 1,95
S1      X(i) = F(X(i+5))
      enddo
      END
`

func TestParseFigure1(t *testing.T) {
	prog, err := Parse(fig1Src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Units) != 2 {
		t.Fatalf("got %d units", len(prog.Units))
	}
	main := prog.Main()
	if main == nil || main.Name != "P1" {
		t.Fatalf("main = %v", main)
	}
	x := main.Symbols.Lookup("X")
	if x == nil || x.Kind != ast.SymArray || len(x.Dims) != 1 {
		t.Fatalf("X symbol = %+v", x)
	}
	np := main.Symbols.Lookup("n$proc")
	if np == nil || np.Kind != ast.SymConstant || np.ConstValue != 4 {
		t.Fatalf("n$proc = %+v", np)
	}

	f1 := prog.Proc("F1")
	if f1 == nil || len(f1.Params) != 1 || f1.Params[0] != "X" {
		t.Fatalf("F1 = %+v", f1)
	}
	if len(f1.Body) != 1 {
		t.Fatalf("F1 body: %d stmts", len(f1.Body))
	}
	loop, ok := f1.Body[0].(*ast.Do)
	if !ok {
		t.Fatalf("F1 body[0] = %T", f1.Body[0])
	}
	if loop.Var != "i" {
		t.Errorf("loop var = %s", loop.Var)
	}
	if hi, _ := ast.EvalInt(loop.Hi, nil); hi != 95 {
		t.Errorf("loop hi = %v", loop.Hi)
	}
	asg, ok := loop.Body[0].(*ast.Assign)
	if !ok {
		t.Fatalf("loop body = %T", loop.Body[0])
	}
	lhs, ok := asg.Lhs.(*ast.ArrayRef)
	if !ok || lhs.Name != "X" {
		t.Fatalf("lhs = %v", asg.Lhs)
	}
	// rhs is F(X(i+5)): F is an intrinsic call, X(i+5) an array ref
	rhs, ok := asg.Rhs.(*ast.FuncCall)
	if !ok || rhs.Name != "F" {
		t.Fatalf("rhs = %v", asg.Rhs)
	}
	arg, ok := rhs.Args[0].(*ast.ArrayRef)
	if !ok || arg.Name != "X" {
		t.Fatalf("rhs arg = %v", rhs.Args[0])
	}
	if arg.Subs[0].String() != "(i + 5)" {
		t.Errorf("subscript = %s", arg.Subs[0])
	}
}

// fig4Src is the paper's Figure 4 program.
const fig4Src = `
      PROGRAM P1
      REAL X(100,100),Y(100,100)
      PARAMETER (n$proc = 4)
      ALIGN Y(i,j) with X(j,i)
      DISTRIBUTE X(BLOCK,:)
      do i = 1,100
S1      call F1(X,i)
      enddo
      do j = 1,100
S2      call F1(Y,j)
      enddo
      END
      SUBROUTINE F1(Z,i)
      REAL Z(100,100)
S3    call F2(Z,i)
      END
      SUBROUTINE F2(Z,i)
      REAL Z(100,100)
      do k = 1,100
        Z(k,i) = F(Z(k+5,i))
      enddo
      END
`

func TestParseFigure4(t *testing.T) {
	prog, err := Parse(fig4Src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Units) != 3 {
		t.Fatalf("units = %d", len(prog.Units))
	}
	main := prog.Main()
	var align *ast.Align
	var dist *ast.Distribute
	calls := 0
	ast.WalkStmts(main.Body, func(s ast.Stmt) bool {
		switch st := s.(type) {
		case *ast.Align:
			align = st
		case *ast.Distribute:
			dist = st
		case *ast.Call:
			calls++
		}
		return true
	})
	if align == nil || align.Array != "Y" || align.Target != "X" {
		t.Fatalf("align = %+v", align)
	}
	// Y(i,j) with X(j,i): X dim 0 slot holds j → array dim 1
	if align.Terms[0].ArrayDim != 1 || align.Terms[1].ArrayDim != 0 {
		t.Errorf("align terms = %+v", align.Terms)
	}
	if dist == nil || dist.Target != "X" {
		t.Fatalf("distribute = %+v", dist)
	}
	if dist.Specs[0].Kind != ast.DistBlock || dist.Specs[1].Kind != ast.DistNone {
		t.Errorf("specs = %+v", dist.Specs)
	}
	if calls != 2 {
		t.Errorf("main has %d calls", calls)
	}
}

func TestParseIfThenElse(t *testing.T) {
	src := `
      PROGRAM T
      REAL X(10)
      if (i .gt. 0 .AND. i .lt. 5) then
        X(i) = 1.0
      else
        X(i) = 2.0
      endif
      END
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := prog.Main().Body[0].(*ast.If)
	if !ok {
		t.Fatalf("body[0] = %T", prog.Main().Body[0])
	}
	if len(st.Then) != 1 || len(st.Else) != 1 {
		t.Errorf("then/else = %d/%d", len(st.Then), len(st.Else))
	}
	cond, ok := st.Cond.(*ast.Binary)
	if !ok || cond.Op != ast.OpAnd {
		t.Errorf("cond = %v", st.Cond)
	}
}

func TestParseLogicalIf(t *testing.T) {
	src := `
      PROGRAM T
      REAL X(10)
      if (my$p .gt. 0) X(1) = 0.0
      END
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	st, ok := prog.Main().Body[0].(*ast.If)
	if !ok || len(st.Then) != 1 || len(st.Else) != 0 {
		t.Fatalf("logical if = %+v", prog.Main().Body[0])
	}
}

// TestIdentifiersAreCaseSensitive pins DESIGN.md deviation 20: where
// Fortran 77 folds case, after REAL a(16) the name A is another
// symbol, an implicitly REAL scalar.
func TestIdentifiersAreCaseSensitive(t *testing.T) {
	prog, err := Parse(`
      PROGRAM T
      REAL a(16)
      A = 2.0
      a(1) = A
      END
`)
	if err != nil {
		t.Fatal(err)
	}
	syms := prog.Main().Symbols
	lower, upper := syms.Lookup("a"), syms.Lookup("A")
	if lower == nil || lower.Kind != ast.SymArray || upper == nil || upper.Kind != ast.SymScalar || upper.Type != ast.TypeReal || upper.Line != 0 {
		t.Fatalf("a = %+v, A = %+v; want the array and an implicit REAL scalar", lower, upper)
	}
}

func TestParseDynamicDistribute(t *testing.T) {
	// Figure 15: executable DISTRIBUTE inside procedure body
	src := `
      SUBROUTINE F1(X)
      REAL X(100)
      DISTRIBUTE X(CYCLIC)
      do i = 1,100
        X(i) = X(i) + 1.0
      enddo
      END
`
	u, err := ParseProcedure(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := u.Body[0].(*ast.Distribute); !ok {
		t.Fatalf("body[0] = %T", u.Body[0])
	}
}

func TestParseDecomposition(t *testing.T) {
	src := `
      PROGRAM T
      REAL A(64)
      DECOMPOSITION D(64)
      ALIGN A(i) with D(i)
      DISTRIBUTE D(CYCLIC(4))
      END
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	m := prog.Main()
	d := m.Symbols.Lookup("D")
	if d == nil || d.Kind != ast.SymDecomposition {
		t.Fatalf("D symbol = %+v", d)
	}
	var dist *ast.Distribute
	ast.WalkStmts(m.Body, func(s ast.Stmt) bool {
		if st, ok := s.(*ast.Distribute); ok {
			dist = st
		}
		return true
	})
	if dist.Specs[0].Kind != ast.DistBlockCyclic || dist.Specs[0].BlockSize != 4 {
		t.Errorf("specs = %+v", dist.Specs)
	}
}

func TestParseCommon(t *testing.T) {
	src := `
      SUBROUTINE S
      COMMON /blk/ G(100), H
      G(1) = H
      END
`
	u, err := ParseProcedure(src)
	if err != nil {
		t.Fatal(err)
	}
	g := u.Symbols.Lookup("G")
	if g == nil || g.Common != "blk" || g.Kind != ast.SymArray {
		t.Fatalf("G = %+v", g)
	}
	h := u.Symbols.Lookup("H")
	if h == nil || h.Common != "blk" || h.Kind != ast.SymScalar {
		t.Fatalf("H = %+v", h)
	}
}

func TestParseAdjustableBounds(t *testing.T) {
	// Figure 14: parameterized overlaps use adjustable array bounds
	src := `
      SUBROUTINE F1(X,Xlo,Xhi)
      REAL X(Xlo:Xhi)
      do i = 1,25
        X(i) = F(X(i+5))
      enddo
      END
`
	u, err := ParseProcedure(src)
	if err != nil {
		t.Fatal(err)
	}
	x := u.Symbols.Lookup("X")
	if x == nil || len(x.Dims) != 1 {
		t.Fatalf("X = %+v", x)
	}
	if x.Dims[0].Lo.String() != "Xlo" || x.Dims[0].Hi.String() != "Xhi" {
		t.Errorf("bounds = %s:%s", x.Dims[0].Lo, x.Dims[0].Hi)
	}
}

func TestParseExprPrecedence(t *testing.T) {
	src := `
      PROGRAM T
      x = 1 + 2 * 3 - 4 / 2
      y = 2 ** 3 ** 2
      END
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	a := prog.Main().Body[0].(*ast.Assign)
	if v, ok := ast.EvalInt(a.Rhs, nil); !ok || v != 5 {
		t.Errorf("1+2*3-4/2 = %v (%v)", v, a.Rhs)
	}
	b := prog.Main().Body[1].(*ast.Assign)
	if v, ok := ast.EvalInt(b.Rhs, nil); !ok || v != 512 {
		t.Errorf("2**3**2 = %v (want right-assoc 512)", v)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"PROGRAM\nEND",          // missing name
		"PROGRAM P\ndo i = 1,5", // unterminated loop
		"PROGRAM P\nif (x .gt. 1) then\nEND",
		"SUBROUTINE S(\nEND",
		"PROGRAM P\nDISTRIBUTE X(FOO)\nEND",
		"PROGRAM P\ndo A = 0, 0\nenddo\nREAL A(4)\nEND", // declared after its use as a scalar
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
	// Fortran D's directives are declarations: a type declaration may
	// follow them
	for _, src := range []string{
		"PROGRAM P\nDECOMPOSITION D(8)\nREAL X(8)\nEND",
		"PROGRAM P\nDECOMPOSITION D(8)\nALIGN X WITH D\nDISTRIBUTE D(BLOCK)\nREAL X(8)\nEND",
	} {
		if _, err := Parse(src); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
}

// TestArrayUsedAsScalar: the parser records the first array a unit
// names without a subscript other than as a whole actual of a CALL, and
// its line, for acg.Build to reject.
func TestArrayUsedAsScalar(t *testing.T) {
	for _, c := range []struct{ stmt, bare string }{
		{"A = A(5)", "A"},
		{"A(A) = 0", "A"},
		{"do A = 1, 2\nenddo", "A"},
		{"if (A .GT. 0) x = 1", "A"},
		{"call f(A + 1)", "A"},
		{"call f(MAX(A))", "A"},
		{"call f(A, x, A)", ""},
	} {
		prog, err := Parse("PROGRAM AAS\nREAL A(22)\n" + c.stmt + "\nEND")
		if err != nil {
			t.Fatalf("%s: %v", c.stmt, err)
		}
		if u := prog.Units[0]; u.ScalarUse != c.bare || c.bare != "" && u.ScalarUseLine != 3 {
			t.Errorf("%s: array %q at line %d, want %q at line 3", c.stmt, u.ScalarUse, u.ScalarUseLine, c.bare)
		}
	}
}

func TestPrintRoundTrip(t *testing.T) {
	prog, err := Parse(fig4Src)
	if err != nil {
		t.Fatal(err)
	}
	text := ast.Print(prog)
	prog2, err := Parse(text)
	if err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, text)
	}
	if len(prog2.Units) != len(prog.Units) {
		t.Errorf("round trip lost units: %d vs %d", len(prog2.Units), len(prog.Units))
	}
	if !strings.Contains(text, "DISTRIBUTE X(BLOCK,:)") {
		t.Errorf("printed text missing distribute:\n%s", text)
	}
}

// TestScalarCRoundTrips: 'c' and 'C' open a comment only in column 1,
// so a scalar named C survives the printer, which indents every
// statement, and the parser that reads the listing back.
func TestScalarCRoundTrips(t *testing.T) {
	prog, err := Parse("      PROGRAM P\n      C=0\n      c = C + 1\n      END\n")
	if err != nil {
		t.Fatal(err)
	}
	text := ast.Print(prog)
	again, err := Parse(text)
	if err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, text)
	}
	if n := len(again.Main().Body); n != 2 {
		t.Errorf("%d statements after print → parse, want 2:\n%s", n, text)
	}
	if text2 := ast.Print(again); text2 != text {
		t.Errorf("print → parse → print changed the program:\n%s\n---\n%s", text, text2)
	}
}

func TestParseOutputLanguageRoundTrip(t *testing.T) {
	src := `
      PROGRAM P
      REAL X(100)
      my$p = myproc()
      if ((my$p .GT. 0)) then
        send X(((my$p * 25) + 1):MIN(((my$p * 25) + 5),100)) to (my$p - 1)
      endif
      if ((my$p .LT. 3)) then
        recv X(26:30) from (my$p + 1)
      endif
      broadcast X(1:100) from 0
      allgather X(1:100)
      postrecv X(26:30) from (my$p + 1) tag 1
      waitrecv X tag 1
      postbcast X(1:50) from 0 to X((my$p + 1):100) ring tag 2
      waitbcast X tag 2
      remap X(CYCLIC)
      markas X(BLOCK)
      globalsum s$red
      globalmax e$red
      END
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []string{}
	ast.WalkStmts(prog.Main().Body, func(s ast.Stmt) bool {
		switch st := s.(type) {
		case *ast.Message:
			kinds = append(kinds, st.Op.Kind().Word)
		case *ast.Remap:
			if st.InPlace {
				kinds = append(kinds, "markas")
			} else {
				kinds = append(kinds, "remap")
			}
		case *ast.GlobalReduce:
			kinds = append(kinds, "reduce:"+st.Op)
		}
		return true
	})
	want := []string{"send", "recv", "broadcast", "allgather", "postrecv", "waitrecv", "postbcast", "waitbcast", "remap", "markas", "reduce:+", "reduce:MAX"}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("stmt %d = %s, want %s", i, kinds[i], want[i])
		}
	}
	// and the whole thing reprints + reparses to the same text
	text := ast.Print(prog)
	again, err := Parse(text)
	if err != nil {
		t.Fatalf("round trip: %v\n%s", err, text)
	}
	if text2 := ast.Print(again); text2 != text {
		t.Fatalf("print → parse → print changed the program:\n%s\n---\n%s", text, text2)
	}
	for _, line := range []string{"postrecv X(26:30) from (my$p + 1) tag 1", "waitrecv X tag 1",
		"postbcast X(1:50) from 0 to X((my$p + 1):100) ring tag 2", "waitbcast X tag 2"} {
		if !strings.Contains(text, line) {
			t.Errorf("printed program lacks %q:\n%s", line, text)
		}
	}
}

func TestParseNegativeStepLoop(t *testing.T) {
	src := `
      PROGRAM P
      REAL X(10)
      do i = 10, 1, -1
        X(i) = i
      enddo
      END
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	loop := prog.Main().Body[0].(*ast.Do)
	if v, ok := ast.EvalInt(loop.Step, nil); !ok || v != -1 {
		t.Errorf("step = %v", loop.Step)
	}
}

func TestParseMultipleUnitsOrder(t *testing.T) {
	src := `
      SUBROUTINE A
      x = 1
      END
      PROGRAM M
      call A
      END
      SUBROUTINE B
      x = 2
      END
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Units) != 3 {
		t.Fatalf("units = %d", len(prog.Units))
	}
	if prog.Main() == nil || prog.Main().Name != "M" {
		t.Error("main not found among units")
	}
	if prog.Proc("B") == nil || prog.Proc("A") == nil {
		t.Error("units not indexed")
	}
}

func TestParseNestedIfInLoop(t *testing.T) {
	src := `
      PROGRAM P
      REAL X(10)
      do i = 1, 10
        if (i .GT. 5) then
          if (i .LT. 8) then
            X(i) = 1.0
          else
            X(i) = 2.0
          endif
        endif
      enddo
      END
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	loop := prog.Main().Body[0].(*ast.Do)
	outer := loop.Body[0].(*ast.If)
	inner := outer.Then[0].(*ast.If)
	if len(inner.Else) != 1 {
		t.Errorf("inner else = %d stmts", len(inner.Else))
	}
}

// TestParseBroadcastReceivers: a broadcast's "to" clause names one
// bounded dimension of an array section and, after it, "ring" or not,
// prints as it was written and reparses to the same statement; a clause
// that bounds no dimension, or two, is an error.
func TestParseBroadcastReceivers(t *testing.T) {
	prog, err := Parse(toClauseSrc)
	if err != nil {
		t.Fatal(err)
	}
	text := ast.Print(prog)
	for _, want := range []string{
		"broadcast a((k + 1):128,k) from MOD((k - 1),1024) to a(:,(k + 1):n) ring",
		"postbcast a(k,1:128) from MOD((k - 1),1024) to a(k:n,:) tag 1",
		"postbcast a(k,1:128) from MOD((k - 1),1024) to a((k + 1):n,:) ring tag 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("printed program lacks %q:\n%s", want, text)
		}
	}
	again, err := Parse(text)
	if err != nil || !ast.StmtsEqual(again.Units[0].Body, prog.Units[0].Body) {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	body := prog.Units[0].Body[1].(*ast.Do).Body
	bc := body[0].(*ast.Message)
	if r := bc.To; r == nil || r.Array != "a" || r.Dim != 1 || r.Rank != 2 || r.Lo.String() != "(k + 1)" || r.Hi.String() != "n" || !r.Ring {
		t.Errorf("clause = %+v", bc.To)
	}
	if tree, ring := body[1].(*ast.Message).To, body[3].(*ast.Message).To; tree.Ring || !ring.Ring {
		t.Errorf("posted clauses = %+v, %+v", tree, ring)
	}
	for _, bad := range []string{"to a(:,:)", "to a(1:2,3:4)", "to a()"} {
		src := "      PROGRAM P\n      REAL a(4,4)\n      broadcast a(1,1) from 0 " + bad + "\n      END\n"
		if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "bounds one dimension") {
			t.Errorf("%s: error %v, want one about the bounded dimension", bad, err)
		}
	}
}
