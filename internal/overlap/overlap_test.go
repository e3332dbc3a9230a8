package overlap

import (
	"testing"

	"fortd/internal/acg"
	"fortd/internal/ast"
	"fortd/internal/explain"
	"fortd/internal/parser"
)

func estimates(t *testing.T, src string) *Analysis {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := acg.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	return ComputeEstimates(g, func(u *ast.Procedure) map[string]*Offsets { return LocalOffsets(u, ast.NewIndex(u)) })
}

// TestFigure13Overlaps reproduces the §5.6 example: the reference
// Z(k+5,i) yields the overlap offset ({+5},0), propagated to the
// actual parameters X and Y of both call chains.
func TestFigure13Overlaps(t *testing.T) {
	a := estimates(t, `
      PROGRAM P1
      REAL X(100,100),Y(100,100)
      do i = 1,100
        call F1(X,i)
        call F1(Y,i)
      enddo
      END
      SUBROUTINE F1(Z,i)
      REAL Z(100,100)
      do k = 1,95
        Z(k,i) = F(Z(k+5,i))
      enddo
      END
`)
	f1 := a.Estimates["F1"]["Z"]
	if f1 == nil {
		t.Fatal("no estimate for Z in F1")
	}
	if f1.Hi[0] != 5 || f1.Lo[0] != 0 || f1.Hi[1] != 0 {
		t.Errorf("Z offsets = %v, want ({+5},0)", f1)
	}
	for _, arr := range []string{"X", "Y"} {
		e := a.Estimates["P1"][arr]
		if e == nil || e.Hi[0] != 5 {
			t.Errorf("%s estimate = %v, want +5 in dim 0", arr, e)
		}
	}
}

// TestExtentsMatchPaper: block size 25 with offset +5 declares [1:30],
// the paper's REAL X(30).
func TestExtentsMatchPaper(t *testing.T) {
	a := estimates(t, `
      PROGRAM P
      REAL X(100)
      call F1(X)
      END
      SUBROUTINE F1(X)
      REAL X(100)
      do i = 1,95
        X(i) = F(X(i+5))
      enddo
      END
`)
	lo, hi := a.Extents("F1", "X", 0, 25)
	if lo != 1 || hi != 30 {
		t.Errorf("extent = [%d:%d], want [1:30]", lo, hi)
	}
}

// TestNegativeOffsets: X(i-2) extends the low side.
func TestNegativeOffsets(t *testing.T) {
	a := estimates(t, `
      PROGRAM P
      REAL X(100)
      do i = 3,100
        X(i) = X(i-2)
      enddo
      END
`)
	e := a.Estimates["P"]["X"]
	if e.Lo[0] != 2 || e.Hi[0] != 0 {
		t.Errorf("offsets = %v, want ({-2},0)", e)
	}
	lo, hi := a.Extents("P", "X", 0, 25)
	if lo != -1 || hi != 25 {
		t.Errorf("extent = [%d:%d], want [-1:25]", lo, hi)
	}
}

// shiftSrc's loop reads X(i+5): the estimate for X is ({-0,+5}).
const shiftSrc = `
      PROGRAM P
      REAL X(100)
      do i = 1,95
        X(i) = X(i+5)
      enddo
      END
`

// TestExplainUseWithinEstimate: shifts the estimate covers keep the
// overlap strategy, and the note says how much of the region they use
// (the uses merged per array).
func TestExplainUseWithinEstimate(t *testing.T) {
	ex := explain.New()
	estimates(t, shiftSrc).Explain(ex, "P", []Use{{Array: "X", Hi: 3}, {Array: "X", Hi: 5}})
	want := "overlap region for X extends the local section by ({-0,+5}); ({-0,+5}) used by generated communication"
	if rs := ex.Remarks(); len(rs) != 1 || rs[0].Kind != explain.Note || rs[0].Msg != want {
		t.Errorf("remarks = %v, want one note %q", rs, want)
	}
}

// TestExplainUseExceedsEstimate: a shift wider than the estimate falls
// back to buffers (the paper's estimate-failure path), a Missed remark.
func TestExplainUseExceedsEstimate(t *testing.T) {
	ex := explain.New()
	estimates(t, shiftSrc).Explain(ex, "P", []Use{{Array: "X", Hi: 9}})
	want := "actual overlap for X exceeds the program-wide estimate ({-0,+5}): nonlocal data falls back to buffers"
	var missed []string
	for _, r := range ex.Remarks() {
		if r.Kind == explain.Missed {
			missed = append(missed, r.Msg)
		}
	}
	if len(missed) != 1 || missed[0] != want {
		t.Errorf("missed remarks = %q, want [%q]", missed, want)
	}
}

// TestMergeAndCovers exercises the Offsets lattice.
func TestMergeAndCovers(t *testing.T) {
	a := NewOffsets(2)
	b := NewOffsets(2)
	b.Hi[0] = 3
	b.Lo[1] = 1
	if !a.Merge(b) {
		t.Error("merge should change a")
	}
	if a.Merge(b) {
		t.Error("second merge should be a no-op")
	}
	if !a.Covers(b) {
		t.Error("a must cover b after merge")
	}
	c := NewOffsets(2)
	c.Hi[0] = 4
	if a.Covers(c) {
		t.Error("a must not cover the wider c")
	}
	if a.Zero() {
		t.Error("a is not zero")
	}
	if !NewOffsets(3).Zero() {
		t.Error("fresh offsets must be zero")
	}
}

// TestCommonBlockOverlaps: offsets flow through common blocks by name.
func TestCommonBlockOverlaps(t *testing.T) {
	a := estimates(t, `
      PROGRAM P
      COMMON /blk/ G(100)
      call S
      END
      SUBROUTINE S
      COMMON /blk/ G(100)
      do i = 1,97
        G(i) = G(i+3)
      enddo
      END
`)
	if e := a.Estimates["P"]["G"]; e == nil || e.Hi[0] != 3 {
		t.Errorf("common overlap estimate = %v, want +3", e)
	}
}

// TestTopDownDistribution: an offset discovered in one caller reaches
// a sibling callee through the shared array.
func TestTopDownDistribution(t *testing.T) {
	a := estimates(t, `
      PROGRAM P
      REAL X(100)
      call reader(X)
      call writer(X)
      END
      SUBROUTINE reader(U)
      REAL U(100)
      do i = 1,96
        y = y + U(i+4)
      enddo
      END
      SUBROUTINE writer(V)
      REAL V(100)
      do i = 1,100
        V(i) = 1.0
      enddo
      END
`)
	// writer itself needs no overlap, but program-wide consistency
	// pushes the +4 estimate down to its formal
	if e := a.Estimates["writer"]["V"]; e == nil || e.Hi[0] != 4 {
		t.Errorf("writer estimate = %v, want +4 pushed down", e)
	}
}
