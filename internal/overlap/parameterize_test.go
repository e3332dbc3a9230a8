package overlap

import (
	"context"
	"strings"
	"testing"

	"fortd/internal/ast"
	"fortd/internal/parser"
	"fortd/internal/spmd"
)

const fig14Input = `
      PROGRAM P1
      REAL X(30)
      call F1(X)
      do i = 26,30
        X(i) = 0.0
      enddo
      END
      SUBROUTINE F1(X)
      REAL X(30)
      do i = 1,25
        X(i) = F(X(i+5))
      enddo
      END
`

// TestFigure14Parameterize reproduces Figure 14: the overlap extent of
// F1's formal X becomes a pair of arguments, the declaration becomes
// adjustable, and the call site passes (1, 30).
func TestFigure14Parameterize(t *testing.T) {
	prog, err := parser.Parse(fig14Input)
	if err != nil {
		t.Fatal(err)
	}
	if err := Parameterize(prog, "F1", "X", 0, 1, 30); err != nil {
		t.Fatal(err)
	}
	text := ast.Print(prog)
	for _, want := range []string{
		"SUBROUTINE F1(X,Xlo,Xhi)",
		"REAL X(Xlo:Xhi)",
		"call F1(X,1,30)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	// the transformed program still runs (adjustable bounds)
	res, err := spmd.RunSequentialContext(context.Background(), prog, spmd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Arrays["X"]) != 30 {
		t.Errorf("X size = %d", len(res.Arrays["X"]))
	}
}

func TestParameterizeRejectsNonFormal(t *testing.T) {
	prog, err := parser.Parse(`
      PROGRAM P
      REAL X(10)
      X(1) = 0.0
      END
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := Parameterize(prog, "P", "X", 0, 1, 12); err == nil {
		t.Error("non-formal array must be rejected (common/global overlaps stay static)")
	}
}

func TestParameterizeRejectsUnknown(t *testing.T) {
	prog, err := parser.Parse(fig14Input)
	if err != nil {
		t.Fatal(err)
	}
	if err := Parameterize(prog, "NOPE", "X", 0, 1, 30); err == nil {
		t.Error("unknown procedure accepted")
	}
	if err := Parameterize(prog, "F1", "Q", 0, 1, 30); err == nil {
		t.Error("unknown array accepted")
	}
	if err := Parameterize(prog, "F1", "X", 3, 1, 30); err == nil {
		t.Error("bad dimension accepted")
	}
}

func TestParameterizeIdempotenceGuard(t *testing.T) {
	prog, err := parser.Parse(fig14Input)
	if err != nil {
		t.Fatal(err)
	}
	if err := Parameterize(prog, "F1", "X", 0, 1, 30); err != nil {
		t.Fatal(err)
	}
	if err := Parameterize(prog, "F1", "X", 0, 1, 30); err == nil {
		t.Error("double parameterization accepted")
	}
}
