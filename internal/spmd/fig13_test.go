package spmd_test

import (
	"context"
	"testing"

	"fortd"
	"fortd/internal/core"
	"fortd/internal/machine"
	"fortd/internal/spmd"
)

// TestOverlapEstimatesHoldEveryReceive checks Figure 13 by execution:
// with each BLOCK window widened by the offsets internal/overlap
// estimated for the main program's arrays, every receive of the stencil
// workloads lands inside a window and no site buffer is ever made;
// without the estimates the same programs need buffers (and are as
// right). dgefa's column broadcast is Figure 14's case, nonlocal data no
// overlap region holds: one buffer per processor for the whole
// factorization.
func TestOverlapEstimatesHoldEveryReceive(t *testing.T) {
	for _, w := range []struct {
		name, src string
		buffers   int // with the estimated overlaps
		without   bool
	}{
		{"Jacobi1DSrc", fortd.Jacobi1DSrc(64, 3, 4), 0, true},
		{"Jacobi2DSrc", fortd.Jacobi2DSrc(24, 2, 4), 0, true},
		{"SyntheticProcsSrc", fortd.SyntheticProcsSrc(4, 8, 32, 4), 0, true},
		{"DgefaSrc", fortd.DgefaSrc(16, 4), 4, false},
	} {
		for _, sched := range []bool{true, false} {
			opts := core.DefaultOptions()
			opts.Overlap = sched
			c, err := core.Compile(w.src, opts)
			if err != nil {
				t.Fatal(err)
			}
			init := fortd.RampInit(w.src)
			if w.name == "DgefaSrc" {
				init = map[string][]float64{"a": fortd.DgefaMatrix(16)}
			}
			ref, err := spmd.Lower(c.Source, 1, nil, nil, nil).RunSequential(context.Background(), spmd.Options{Init: init})
			if err != nil {
				t.Fatal(err)
			}
			for _, overlap := range []func(string, string, int, int) (int, int){c.Overlaps.Extents, nil} {
				res, err := spmd.Lower(c.Program, c.P, c.MainDists, overlap, nil).Run(context.Background(), machine.DefaultConfig(c.P), spmd.Options{Init: init})
				if err != nil {
					t.Fatal(err)
				}
				for name, want := range ref.Arrays {
					for i := range want {
						if got := res.Arrays[name][i]; got != want[i] {
							t.Fatalf("%s sched=%v: %s[%d] = %v, sequential reference %v", w.name, sched, name, i, got, want[i])
						}
					}
				}
				n := spmd.SiteBuffers(res)
				if overlap != nil && n != w.buffers {
					t.Errorf("%s sched=%v: %d site buffers with the estimated overlaps, want %d", w.name, sched, n, w.buffers)
				}
				if overlap == nil && w.without && n == 0 {
					t.Errorf("%s sched=%v: no site buffer without overlap regions: the check above checks nothing", w.name, sched)
				}
			}
		}
	}
}
