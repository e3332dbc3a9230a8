package main

import (
	"fmt"
	"math"
)

// Oracles written in plain Go. Both executors of the program under
// test (Runner.Run and Runner.RunReference) go through internal/spmd,
// so agreeing with each other proves nothing about the interpreter;
// these share no code with it. Arrays are row-major, as WithInit and
// Result.Arrays use them.

// luOracle is pivot-free LU factorization in place (the dgefa of
// fortd.DgefaSrc: the test matrix is diagonally dominant, so the pivot
// is always the diagonal).
func luOracle(a []float64, n int) []float64 {
	a = append([]float64(nil), a...)
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
	return a
}

// jacobiOracle runs the five-point stencil of fortd.Jacobi2DSrc and
// returns both arrays (b starts at zero and keeps its last sweep).
func jacobiOracle(a0 []float64, n, steps int) (a, b []float64) {
	a = append([]float64(nil), a0...)
	b = make([]float64, n*n)
	for t := 0; t < steps; t++ {
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				b[i*n+j] = 0.25 * (a[(i-1)*n+j] + a[(i+1)*n+j] + a[i*n+j-1] + a[i*n+j+1])
			}
		}
		for i := 1; i < n-1; i++ {
			copy(a[i*n+1:i*n+n-1], b[i*n+1:i*n+n-1])
		}
	}
	return a, b
}

// onesOracle is the Figure 15 result: F2 overwrites all of X with 1.
func onesOracle(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	return x
}

// synthOracle runs one subroutine of fortd.SyntheticProcsSrc: for each
// loop l an in-place sweep x(i) = 0.5*x(i-sh) + 0.25*x(i+sh) + addend,
// sh = 1 + l mod 3, over i = sh+1 .. n-sh (1-based).
func synthOracle(x0 []float64, addends []float64) []float64 {
	x := append([]float64(nil), x0...)
	n := len(x)
	for l, add := range addends {
		sh := 1 + l%3
		for i := sh; i < n-sh; i++ {
			x[i] = 0.5*x[i-sh] + 0.25*x[i+sh] + add
		}
	}
	return x
}

// sameArrays compares every array of want with got to 1e-9 relative
// and returns the first difference ("" when they agree).
func sameArrays(got, want map[string][]float64) string {
	for name, w := range want {
		g, ok := got[name]
		if !ok || len(g) != len(w) {
			return fmt.Sprintf("array %s: have %d elements, want %d", name, len(g), len(w))
		}
		for i := range w {
			if d := math.Abs(g[i] - w[i]); !(d <= 1e-9*math.Max(1, math.Abs(w[i]))) {
				return fmt.Sprintf("array %s[%d] = %v, want %v", name, i, g[i], w[i])
			}
		}
	}
	return ""
}
