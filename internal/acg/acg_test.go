package acg

import (
	"testing"

	"fortd/internal/parser"
)

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

// TestFigure5ACG reproduces the augmented call graph of Figure 5: P1 has
// two loops i and j, both containing calls to F1; F1 calls F2, which in
// turn contains loop k. The annotation binds formal i in F1 to the index
// variable of a loop in P1 iterating from 1 to 100 with step 1.
func TestFigure5ACG(t *testing.T) {
	prog, err := parser.Parse(fig4Src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	p1 := g.Nodes["P1"]
	f1 := g.Nodes["F1"]
	f2 := g.Nodes["F2"]
	if p1 == nil || f1 == nil || f2 == nil {
		t.Fatal("missing nodes")
	}
	if len(p1.Calls) != 2 {
		t.Fatalf("P1 has %d call sites", len(p1.Calls))
	}
	if len(f1.Callers) != 2 || len(f1.Calls) != 1 {
		t.Fatalf("F1 callers/calls = %d/%d", len(f1.Callers), len(f1.Calls))
	}
	if len(f2.Callers) != 1 || len(f2.Calls) != 0 {
		t.Fatalf("F2 callers/calls = %d/%d", len(f2.Callers), len(f2.Calls))
	}
	// formal i is bound to P1's loop index i (the loop itself is read
	// from P1's body by the passes that need it)
	s1 := p1.Calls[0]
	if b := s1.Bindings[1]; b.Formal != "i" || b.ActualName != "i" {
		t.Fatalf("binding = %+v", b)
	}
	// array binding
	if s1.Bindings[0].Formal != "Z" || s1.Bindings[0].ActualName != "X" {
		t.Errorf("array binding = %+v", s1.Bindings[0])
	}
}

func TestTopoOrders(t *testing.T) {
	prog, err := parser.Parse(fig4Src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	topo := g.TopoOrder()
	pos := map[string]int{}
	for i, n := range topo {
		pos[n.Name()] = i
	}
	if !(pos["P1"] < pos["F1"] && pos["F1"] < pos["F2"]) {
		t.Errorf("topo order wrong: %v", pos)
	}
	rev := g.ReverseTopoOrder()
	if rev[0].Name() != "F2" || rev[len(rev)-1].Name() != "P1" {
		t.Errorf("reverse topo = %v..%v", rev[0].Name(), rev[len(rev)-1].Name())
	}
}

func TestRecursionRejected(t *testing.T) {
	src := `
      PROGRAM P
      call A
      END
      SUBROUTINE A
      call B
      END
      SUBROUTINE B
      call A
      END
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(prog); err == nil {
		t.Error("recursion must be rejected")
	}
}

func TestExternalCallsIgnored(t *testing.T) {
	src := `
      PROGRAM P
      call extern(1)
      END
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	if p := g.Nodes["P"]; len(p.Calls) != 0 || !p.External {
		t.Errorf("external call created %d sites", len(p.Calls))
	}
}

func TestCallOutsideLoop(t *testing.T) {
	src := `
      PROGRAM P
      REAL X(10)
      call S(X)
      END
      SUBROUTINE S(X)
      REAL X(10)
      X(1) = 0.0
      END
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	if calls := g.Nodes["P"].Calls; len(calls) != 1 || calls[0].Bindings[0].ActualName != "X" {
		t.Errorf("sites = %+v", calls)
	}
}
