package fortd

import (
	"fmt"
	"math"
	"strings"

	"fortd/internal/ast"
	"fortd/internal/parser"
)

// This file provides the paper's workloads as parameterized Fortran D
// source generators, shared by the examples, the benchmark harness and
// the experiment driver (cmd/fdpaper).

// Fig1Src generates the paper's Figure 1 program: a shifted
// assignment in a subroutine whose decomposition is only known
// interprocedurally. n is the array size, p the processor count.
func Fig1Src(n, p int) string {
	return fmt.Sprintf(`
      PROGRAM P1
      REAL X(%d)
      PARAMETER (n$proc = %d)
      DISTRIBUTE X(BLOCK)
      call F1(X)
      END
      SUBROUTINE F1(X)
      REAL X(%d)
      do i = 1,%d
        X(i) = F(X(i+5))
      enddo
      END
`, n, p, n, n-5)
}

// Fig4Src generates the paper's Figure 4 program: two call sites
// passing differently-distributed arrays to the same procedure chain,
// requiring cloning (Figure 8), delayed computation partitioning and
// delayed vectorized communication (Figure 10).
func Fig4Src(n, p int) string {
	return fmt.Sprintf(`
      PROGRAM P1
      REAL X(%d,%d),Y(%d,%d)
      PARAMETER (n$proc = %d)
      ALIGN Y(i,j) with X(j,i)
      DISTRIBUTE X(BLOCK,:)
      do i = 1,%d
S1      call F1(X,i)
      enddo
      do j = 1,%d
S2      call F1(Y,j)
      enddo
      END
      SUBROUTINE F1(Z,i)
      REAL Z(%d,%d)
S3    call F2(Z,i)
      END
      SUBROUTINE F2(Z,i)
      REAL Z(%d,%d)
      do k = 1,%d
        Z(k,i) = F(Z(k+5,i))
      enddo
      END
`, n, n, n, n, p, n, n, n, n, n, n, n-5)
}

// Fig15Src generates the paper's Figure 15 dynamic-data-decomposition
// program: X is block-distributed, cyclically redistributed inside F1
// (called twice per iteration of a T-trip loop), then fully overwritten
// by F2.
func Fig15Src(T, p int) string {
	return Fig15ScaledSrc(100, T, p)
}

// Fig15ScaledSrc generates the Figure 15 dynamic-distribution pattern
// at an arbitrary array size (Fig15Src pins the paper's X(100)). The
// scaled workloads (bench/'s dyndist_p256, TestScaledWorkloadsP256)
// redistribute a larger X across hundreds of processors: a BLOCK↔CYCLIC
// remap is a message for every pair of processors that share an element.
func Fig15ScaledSrc(n, T, p int) string {
	return fmt.Sprintf(`
      PROGRAM P1
      REAL X(%d)
      PARAMETER (n$proc = %d)
      DISTRIBUTE X(BLOCK)
      do k = 1,%d
S1      call F1(X)
S2      call F1(X)
      enddo
      call F2(X)
      END
      SUBROUTINE F1(X)
      REAL X(%d)
      DISTRIBUTE X(CYCLIC)
      do i = 1,%d
        y = y + X(i)
      enddo
      END
      SUBROUTINE F2(X)
      REAL X(%d)
      do i = 1,%d
        X(i) = 1.0
      enddo
      END
`, n, p, T, n, n, n, n)
}

// DgefaSrc generates the §9 case study: LU factorization on a
// column-cyclic matrix, with the BLAS-1 kernels (idamax, dscal, daxpy)
// in separate procedures. The idamax pivot scan computes the column
// maximum but no rows are swapped — the test matrix (DgefaMatrix) is
// diagonally dominant, so the pivot is always the diagonal and the
// numeric results match pivot-free elimination.
func DgefaSrc(n, p int) string {
	return fmt.Sprintf(`
      PROGRAM MAIN
      PARAMETER (n$proc = %d)
      REAL a(%d,%d)
      DISTRIBUTE a(:,CYCLIC)
      call dgefa(a, %d)
      END
      SUBROUTINE dgefa(a, n)
      REAL a(%d,%d)
      do k = 1, n-1
        call idamax(a, n, k)
        t = 1.0 / a(k,k)
        call dscal(a, n, k, t)
        do j = k+1, n
          call daxpy(a, n, k, j)
        enddo
      enddo
      END
      SUBROUTINE idamax(a, n, k)
      REAL a(%d,%d)
      s = 0.0
      do i = k, n
        s = MAX(s, ABS(a(i,k)))
      enddo
      END
      SUBROUTINE dscal(a, n, k, t)
      REAL a(%d,%d)
      do i = k+1, n
        a(i,k) = a(i,k) * t
      enddo
      END
      SUBROUTINE daxpy(a, n, k, j)
      REAL a(%d,%d)
      do i = k+1, n
        a(i,j) = a(i,j) - a(i,k) * a(k,j)
      enddo
      END
`, p, n, n, n, n, n, n, n, n, n, n, n)
}

// DgefaMatrix builds the deterministic diagonally dominant test matrix
// used with DgefaSrc (row-major).
func DgefaMatrix(n int) []float64 {
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := math.Sin(float64(i*7+j*13)) * 0.5
			if i == j {
				v = float64(n) + 1.0
			}
			a[i*n+j] = v
		}
	}
	return a
}

// DgefaHandSrc is hand-written SPMD message-passing code for the same
// factorization — the comparison point the paper's §9 uses ("the
// Fortran D compiler produces programs that closely approach the
// quality of hand-written code"). It is written directly in the output
// language (my$p, first$, broadcast) the way an iPSC programmer would:
// the pivot column is scaled by its owner and broadcast once per step to
// the owners of the columns it updates, along a ring whose first receiver
// is the next step's owner, and each processor updates only its own
// columns.
func DgefaHandSrc(n, p int) string {
	return fmt.Sprintf(`
      PROGRAM HAND
      PARAMETER (n$proc = %d)
      REAL a(%d,%d)
      DISTRIBUTE a(:,CYCLIC)
      my$p = myproc()
      do k = 1, %d
        if (MOD(k-1, %d) .EQ. my$p) then
          t = 1.0 / a(k,k)
          do i = k+1, %d
            a(i,k) = a(i,k) * t
          enddo
        endif
        broadcast a(k:%d,k) from MOD(k-1, %d) to a(:,k+1:%d) ring
        do j = first$(my$p+1, k+1, %d), %d, %d
          do i = k+1, %d
            a(i,j) = a(i,j) - a(i,k) * a(k,j)
          enddo
        enddo
      enddo
      END
`, p, n, n, n-1, p, n, n, p, n, p, n, p, n)
}

// Jacobi1DSrc generates a 1-D Jacobi relaxation with a time loop.
func Jacobi1DSrc(n, steps, p int) string {
	return fmt.Sprintf(`
      PROGRAM JAC
      PARAMETER (n$proc = %d)
      REAL a(%d), b(%d)
      DISTRIBUTE a(BLOCK)
      DISTRIBUTE b(BLOCK)
      do t = 1, %d
        do i = 2, %d
          b(i) = 0.5 * (a(i-1) + a(i+1))
        enddo
        do i = 2, %d
          a(i) = b(i)
        enddo
      enddo
      END
`, p, n, n, steps, n-1, n-1)
}

// Jacobi2DSrc generates the 2-D five-point stencil on a row-block
// distribution.
func Jacobi2DSrc(n, steps, p int) string {
	return fmt.Sprintf(`
      PROGRAM JAC2
      PARAMETER (n$proc = %d)
      REAL a(%d,%d), b(%d,%d)
      DISTRIBUTE a(BLOCK,:)
      DISTRIBUTE b(BLOCK,:)
      do t = 1, %d
        do i = 2, %d
          do j = 2, %d
            b(i,j) = 0.25 * (a(i-1,j) + a(i+1,j) + a(i,j-1) + a(i,j+1))
          enddo
        enddo
        do i = 2, %d
          do j = 2, %d
            a(i,j) = b(i,j)
          enddo
        enddo
      enddo
      END
`, p, n, n, n, n, steps, n-1, n-1, n-1, n-1)
}

// ADISrc generates an ADI-style alternating-sweep program, the
// motivating case for dynamic data decomposition (§6): a row
// recurrence phase (perfectly parallel when rows are distributed)
// followed by a column recurrence phase (perfectly parallel when
// columns are distributed). With dynamic=true the array is
// redistributed between the phases — one remap instead of a pipelined
// per-iteration boundary exchange through the second phase.
func ADISrc(n, steps, p int, dynamic bool) string {
	remap := ""
	if dynamic {
		remap = "        DISTRIBUTE a(:,BLOCK)\n"
	}
	restore := ""
	if dynamic {
		restore = "        DISTRIBUTE a(BLOCK,:)\n"
	}
	return fmt.Sprintf(`
      PROGRAM ADI
      PARAMETER (n$proc = %d)
      REAL a(%d,%d)
      DISTRIBUTE a(BLOCK,:)
      do t = 1, %d
        do i = 1, %d
          do j = 2, %d
            a(i,j) = a(i,j) + 0.5 * a(i,j-1)
          enddo
        enddo
%s        do j = 1, %d
          do i = 2, %d
            a(i,j) = a(i,j) + 0.5 * a(i-1,j)
          enddo
        enddo
%s      enddo
      END
`, p, n, n, steps, n, n, remap, n, n, restore)
}

// SyntheticProcsSrc generates a compile-time benchmark workload: nsubs
// independent stencil subroutines, each owning a BLOCK-distributed
// array of n elements and containing loops sweep loops, all called in
// sequence from the main program. The subroutines do not call each
// other, so the phase-3 scheduler can compile all of them concurrently;
// raising loops raises the per-procedure analysis cost.
func SyntheticProcsSrc(nsubs, loops, n, p int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "      PROGRAM MAIN\n      PARAMETER (n$proc = %d)\n", p)
	for i := 1; i <= nsubs; i++ {
		fmt.Fprintf(&b, "      REAL a%d(%d)\n", i, n)
	}
	for i := 1; i <= nsubs; i++ {
		fmt.Fprintf(&b, "      DISTRIBUTE a%d(BLOCK)\n", i)
	}
	for i := 1; i <= nsubs; i++ {
		fmt.Fprintf(&b, "      call s%d(a%d)\n", i, i)
	}
	b.WriteString("      END\n")
	for i := 1; i <= nsubs; i++ {
		fmt.Fprintf(&b, "      SUBROUTINE s%d(x)\n      REAL x(%d)\n", i, n)
		for l := 0; l < loops; l++ {
			// alternate shift directions so successive loops carry
			// different communication patterns
			sh := 1 + l%3
			fmt.Fprintf(&b, `      do i = %d, %d
        x(i) = 0.5 * x(i-%d) + 0.25 * x(i+%d) + %d.0
      enddo
`, sh+1, n-sh, sh, sh, i+l)
		}
		b.WriteString("      END\n")
	}
	return b.String()
}

// ReductionSrc generates a global-reduction workload over a cyclic
// distribution: a sum and a max over the whole array, each lowered to
// one recursive-doubling allreduce (globalsum/globalmax). It exercises
// the allreduce on every processor count, including P that are not
// powers of two, whose last partial block also serves the ranks left
// without a partner.
func ReductionSrc(n, p int) string {
	return fmt.Sprintf(`
      PROGRAM RED
      PARAMETER (n$proc = %d)
      REAL X(%d)
      DISTRIBUTE X(CYCLIC)
      do i = 1, %d
        X(i) = MOD(i * 7, 13)
      enddo
      s = 0.0
      do i = 1, %d
        s = s + X(i)
      enddo
      emax = 0.0
      do i = 1, %d
        emax = MAX(emax, X(i))
      enddo
      X(1) = s
      X(2) = emax
      END
`, p, n, n, n, n)
}

// Ramp returns [1, 2, ..., n] as float64 — a convenient array seed.
func Ramp(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

// RampInit seeds every constant-sized array of src's main program with
// a Ramp — the default initialization fdrun uses for arbitrary input
// files. Arrays whose dimensions are not compile-time constants, or
// are negative or larger than the executor stores (and programs that
// fail to parse) are simply skipped; the compiler and the executor
// report those errors.
func RampInit(src string) map[string][]float64 {
	const most = 1 << 26 // spmd's maxArrayElems
	init := map[string][]float64{}
	parsed, err := parser.Parse(src)
	if err != nil || parsed.Main() == nil {
		return init
	}
	for _, sym := range parsed.Main().Symbols.Symbols() {
		if sym.Kind != ast.SymArray {
			continue
		}
		exts, okAll := sym.Extents(nil)
		size := 1
		for _, ext := range exts {
			if ext < 0 || ext > most || size*ext > most {
				okAll = false
				break
			}
			size *= ext
		}
		if okAll {
			init[sym.Name] = Ramp(size)
		}
	}
	return init
}
