package overlap_test

import (
	"context"
	"testing"

	"fortd"
	"fortd/internal/core"
	"fortd/internal/machine"
	"fortd/internal/spmd"
)

// TestFigure14Parameterize checks what Figure 14's parameterized
// overlaps arrange, by storage instead of by extra arguments: F1's
// formal X has no extent of its own but addresses P1's X, whose local
// extent is the paper's REAL X(30) in both (block 25 plus F1's offset
// +5), and the run that stores it so equals the sequential reference.
// (internal/spmd's TestOverlapEstimatesHoldEveryReceive counts that no
// receive misses the window.)
func TestFigure14Parameterize(t *testing.T) {
	const src = `
      PROGRAM P1
      PARAMETER (n$proc = 4)
      REAL X(100)
      DISTRIBUTE X(BLOCK)
      do i = 1,100
        X(i) = i
      enddo
      call F1(X)
      END
      SUBROUTINE F1(X)
      REAL X(100)
      do i = 1,95
        X(i) = X(i+5)
      enddo
      END
`
	c, err := core.Compile(src, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, proc := range []string{"P1", "F1"} {
		if lo, hi := c.Overlaps.Extents(proc, "X", 0, 25); lo != 1 || hi != 30 {
			t.Errorf("%s: X's local extent [%d:%d], want [1:30]", proc, lo, hi)
		}
	}
	init := fortd.RampInit(src)
	ref, err := spmd.Lower(c.Source, 1, nil, nil, nil).RunSequential(context.Background(), spmd.Options{Init: init})
	if err != nil {
		t.Fatal(err)
	}
	res, err := spmd.Lower(c.Program, c.P, c.MainDists, c.Overlaps.Extents, nil).Run(context.Background(), machine.DefaultConfig(c.P), spmd.Options{Init: init})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range ref.Arrays["X"] {
		if got := res.Arrays["X"][i]; got != want {
			t.Fatalf("X[%d] = %v, sequential reference %v", i, got, want)
		}
	}
}
