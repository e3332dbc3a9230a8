package core

import (
	"context"
	"testing"

	"fortd/internal/ast"
	"fortd/internal/machine"
	"fortd/internal/parser"
	"fortd/internal/spmd"
)

// TestGeneratedCodeRoundTrips: the printed SPMD program is itself valid
// input — reparsing and re-executing it gives identical results and
// identical communication statistics. This pins down both the printer
// and the parser on the full output language (send/recv/broadcast/
// allgather/remap statements, my$p arithmetic, first$/MIN/MAX bounds).
// realred reduces a REAL accumulator whose name starts with m: the
// reparsed unit types its partial mx$red INTEGER by its first letter,
// and the executor must still keep the partial sums whole.
func TestGeneratedCodeRoundTrips(t *testing.T) {
	sources := map[string]struct {
		src  string
		init map[string][]float64
	}{
		"fig1":    {fig1Src, map[string][]float64{"X": initRamp(100)}},
		"fig4":    {fig4Src, map[string][]float64{"X": initRamp(100 * 100), "Y": initRamp(100 * 100)}},
		"dgefa":   {DgefaSrc(24, 4), map[string][]float64{"a": DgefaMatrix(24)}},
		"jacobi":  {JacobiSrc(64, 4, 4), map[string][]float64{"a": jacobiInit(64)}},
		"adi":     {adiSrc(16, 2, 4, true), map[string][]float64{"a": initRamp(16 * 16)}},
		"realred": {realRedSrc, nil},
	}
	for name, tc := range sources {
		c := compileSrc(t, tc.src, DefaultOptions())
		orig, err := spmd.Lower(c.Program, c.P, c.MainDists, nil, nil).Run(context.Background(), machine.DefaultConfig(c.P), spmd.Options{Init: tc.init})
		if err != nil {
			t.Fatalf("%s: original run: %v", name, err)
		}

		text := ast.Print(c.Program)
		reparsed, err := parser.Parse(text)
		if err != nil {
			t.Fatalf("%s: reparse failed: %v\n%s", name, err, text)
		}
		again, err := spmd.Lower(reparsed, c.P, c.MainDists, nil, nil).Run(context.Background(), machine.DefaultConfig(c.P), spmd.Options{Init: tc.init})
		if err != nil {
			t.Fatalf("%s: reparsed run: %v\n%s", name, err, text)
		}

		for arr, want := range orig.Arrays {
			got := again.Arrays[arr]
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: %s[%d] = %v after round trip, want %v", name, arr, i, got[i], want[i])
				}
			}
		}
		if orig.Stats.Messages != again.Stats.Messages || orig.Stats.Words != again.Stats.Words {
			t.Errorf("%s: stats changed across round trip: %v vs %v", name, orig.Stats, again.Stats)
		}
	}
}

const realRedSrc = `
      PROGRAM REALRED
      PARAMETER (n$proc = 4)
      REAL a(16), r(1)
      REAL mx
      DISTRIBUTE a(BLOCK)
      do i = 1, 16
        a(i) = i * 0.25
      enddo
      mx = 0.0
      do i = 1, 16
        mx = mx + a(i)
      enddo
      r(1) = mx
      END
`
