package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"fortd/internal/codegen"
	"fortd/internal/machine"
	"fortd/internal/spmd"
)

// DgefaSrc builds the paper's §9 case study: LINPACK's dgefa (LU
// factorization without pivoting — the input is made diagonally
// dominant) structured exactly as the paper motivates, with the
// BLAS-1-style kernels in separate procedures so that interprocedural
// analysis is required to compile them with known decompositions.
// Columns are distributed cyclically for load balance, the classic
// LINPACK choice.
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
        t = 1.0 / a(k,k)
        call dscal(a, n, k, t)
        do j = k+1, n
          call daxpy(a, n, k, j)
        enddo
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
`, p, n, n, n, n, n, n, n, n, n)
}

// DgefaMatrix builds a deterministic diagonally dominant n×n matrix in
// row-major order.
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

// goDgefa is the plain Go reference LU factorization (no pivoting),
// matching the Fortran algorithm element for element.
func goDgefa(a []float64, n int) {
	for k := 0; k < n-1; k++ {
		t := 1.0 / a[k*n+k]
		for i := k + 1; i < n; i++ {
			a[i*n+k] *= t
		}
		for j := k + 1; j < n; j++ {
			for i := k + 1; i < n; i++ {
				a[i*n+j] -= a[i*n+k] * a[k*n+j]
			}
		}
	}
}

func TestDgefaSequentialMatchesGo(t *testing.T) {
	const n = 24
	c := compileSrc(t, DgefaSrc(n, 4), DefaultOptions())
	init := map[string][]float64{"a": DgefaMatrix(n)}
	seq, err := spmd.Lower(c.Source, 1, nil, nil, nil).RunSequential(context.Background(), spmd.Options{Init: init})
	if err != nil {
		t.Fatal(err)
	}
	want := DgefaMatrix(n)
	goDgefa(want, n)
	assertSame(t, "a", seq.Arrays["a"], want)
}

// TestDgefaEndToEnd: the compiled interprocedural SPMD dgefa computes
// the correct factorization on 4 processors.
func TestDgefaEndToEnd(t *testing.T) {
	const n = 24
	c := compileSrc(t, DgefaSrc(n, 4), DefaultOptions())
	init := map[string][]float64{"a": DgefaMatrix(n)}
	par, seq := runBoth(t, c, init)
	assertSame(t, "a", par.Arrays["a"], seq.Arrays["a"])
	if par.Stats.Messages == 0 {
		t.Error("dgefa ran without communication")
	}
}

// TestDgefaRuntimeResolution: the baseline also computes the right
// answer, with far more messages and time.
func TestDgefaRuntimeResolution(t *testing.T) {
	const n = 16
	opts := DefaultOptions()
	opts.Strategy = codegen.StrategyRuntime
	c := compileSrc(t, DgefaSrc(n, 4), opts)
	init := map[string][]float64{"a": DgefaMatrix(n)}
	par, seq := runBoth(t, c, init)
	assertSame(t, "a", par.Arrays["a"], seq.Arrays["a"])

	cFast := compileSrc(t, DgefaSrc(n, 4), DefaultOptions())
	parF, _ := runBoth(t, cFast, init)
	if par.Stats.Messages <= parF.Stats.Messages {
		t.Errorf("runtime resolution msgs %d not worse than interproc %d",
			par.Stats.Messages, parF.Stats.Messages)
	}
	if par.Stats.Time <= parF.Stats.Time {
		t.Errorf("runtime resolution time %.0f not worse than interproc %.0f",
			par.Stats.Time, parF.Stats.Time)
	}
}

// TestDgefaScales: more processors should not be slower on a
// reasonably sized problem (the §9 claim that interprocedural
// optimization achieves acceptable parallel performance). The problem
// size must be large enough that computation dominates the per-
// iteration broadcast latency — the same crossover the iPSC/860 had.
func TestDgefaScales(t *testing.T) {
	const n = 96
	init := map[string][]float64{"a": DgefaMatrix(n)}
	times := map[int]float64{}
	for _, p := range []int{1, 2, 4, 8} {
		c := compileSrc(t, DgefaSrc(n, p), DefaultOptions())
		par, err := spmd.Lower(c.Program, p, c.MainDists, nil, nil).Run(context.Background(), machine.DefaultConfig(p), spmd.Options{Init: init})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		seq, err := spmd.Lower(c.Source, 1, nil, nil, nil).RunSequential(context.Background(), spmd.Options{Init: init})
		if err != nil {
			t.Fatal(err)
		}
		assertSame(t, fmt.Sprintf("a@p%d", p), par.Arrays["a"], seq.Arrays["a"])
		times[p] = par.Stats.Time
	}
	if times[4] >= times[1] {
		t.Errorf("no speedup: t1=%.0f t4=%.0f", times[1], times[4])
	}
}
