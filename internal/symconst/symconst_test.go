package symconst

import (
	"testing"

	"fortd/internal/acg"
	"fortd/internal/parser"
	"fortd/internal/sideeffect"
)

func compute(t *testing.T, src string) Result {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := acg.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	return Compute(g, sideeffect.Compute(g, sideeffect.Own))
}

// TestConstantFlowsThroughChain: main → dgefa → daxpy, the matrix
// order n pinned at 128 everywhere.
func TestConstantFlowsThroughChain(t *testing.T) {
	r := compute(t, `
      PROGRAM MAIN
      REAL a(128,128)
      call dgefa(a, 128)
      END
      SUBROUTINE dgefa(a, n)
      REAL a(128,128)
      do k = 1, n-1
        call daxpy(a, n, k)
      enddo
      END
      SUBROUTINE daxpy(a, n, k)
      REAL a(128,128)
      do i = k+1, n
        a(i,k) = a(i,k) * 2.0
      enddo
      END
`)
	if v, ok := r["dgefa"].Value("n"); !ok || v != 128 {
		t.Errorf("dgefa n = %v,%v want 128", v, ok)
	}
	if v, ok := r["daxpy"].Value("n"); !ok || v != 128 {
		t.Errorf("daxpy n = %v,%v want 128", v, ok)
	}
	// k varies per call (loop variable): not constant
	if _, ok := r["daxpy"].Value("k"); ok {
		t.Error("loop-varying k must not be constant")
	}
}

// TestDisagreeingSitesNotConstant: different constants at different
// sites block the propagation.
func TestDisagreeingSitesNotConstant(t *testing.T) {
	r := compute(t, `
      PROGRAM P
      REAL a(10)
      call s(a, 5)
      call s(a, 7)
      END
      SUBROUTINE s(a, n)
      REAL a(10)
      a(1) = n
      END
`)
	if _, ok := r["s"].Value("n"); ok {
		t.Error("disagreeing call sites must not pin n")
	}
}

// TestAssignedFormalNotConstant: a formal the callee writes is not a
// constant even when every site agrees.
func TestAssignedFormalNotConstant(t *testing.T) {
	r := compute(t, `
      PROGRAM P
      REAL a(10)
      call s(a, 5)
      END
      SUBROUTINE s(a, n)
      REAL a(10)
      n = n + 1
      a(1) = n
      END
`)
	if _, ok := r["s"].Value("n"); ok {
		t.Error("assigned formal must not be constant")
	}
}

// TestWriteThroughCalleeDetected: n passed by reference to a callee
// that modifies it is not constant in the middle procedure.
func TestWriteThroughCalleeDetected(t *testing.T) {
	r := compute(t, `
      PROGRAM P
      REAL a(10)
      call mid(a, 5)
      END
      SUBROUTINE mid(a, n)
      REAL a(10)
      call bump(n)
      a(1) = n
      END
      SUBROUTINE bump(x)
      x = x + 1
      END
`)
	if _, ok := r["mid"].Value("n"); ok {
		t.Error("write through callee must block constancy")
	}
}

// TestParameterExpressionsEvaluate: actuals built from PARAMETER
// constants propagate.
func TestParameterExpressionsEvaluate(t *testing.T) {
	r := compute(t, `
      PROGRAM P
      PARAMETER (m = 20)
      REAL a(40)
      call s(a, m * 2)
      END
      SUBROUTINE s(a, n)
      REAL a(40)
      a(1) = n
      END
`)
	if v, ok := r["s"].Value("n"); !ok || v != 40 {
		t.Errorf("s n = %v,%v want 40", v, ok)
	}
}
