package spmd

import (
	"context"
	"math"
	"testing"

	"fortd/internal/ast"
	"fortd/internal/decomp"
	"fortd/internal/machine"
	"fortd/internal/parser"
)

func parseProg(t *testing.T, src string) *ast.Program {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSequentialArithmetic(t *testing.T) {
	prog := parseProg(t, `
      PROGRAM P
      REAL X(10)
      do i = 1,10
        X(i) = i * 2 + 1
      enddo
      s = 0.0
      do i = 1,10
        s = s + X(i)
      enddo
      X(1) = s
      END
`)
	res, err := Lower(prog, 1, nil, nil, nil).RunSequential(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// sum of 2i+1 for i=1..10 = 110 + 10 = 120
	if res.Arrays["X"][0] != 120 {
		t.Errorf("X(1) = %v, want 120", res.Arrays["X"][0])
	}
}

func TestCallByReference(t *testing.T) {
	prog := parseProg(t, `
      PROGRAM P
      REAL A(5)
      call fill(A, 3)
      END
      SUBROUTINE fill(X, v)
      REAL X(5)
      do i = 1,5
        X(i) = v
      enddo
      END
`)
	res, err := Lower(prog, 1, nil, nil, nil).RunSequential(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Arrays["A"] {
		if v != 3 {
			t.Fatalf("A[%d] = %v", i, v)
		}
	}
}

func TestScalarByReference(t *testing.T) {
	prog := parseProg(t, `
      PROGRAM P
      REAL A(2)
      s = 0.0
      call bump(s)
      call bump(s)
      A(1) = s
      END
      SUBROUTINE bump(x)
      x = x + 1.0
      END
`)
	res, err := Lower(prog, 1, nil, nil, nil).RunSequential(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrays["A"][0] != 2 {
		t.Errorf("s = %v, want 2 (scalar passed by reference)", res.Arrays["A"][0])
	}
}

func TestExpressionArgByValue(t *testing.T) {
	prog := parseProg(t, `
      PROGRAM P
      REAL A(1)
      call f(A, 2+3)
      END
      SUBROUTINE f(X, v)
      REAL X(1)
      X(1) = v
      END
`)
	res, err := Lower(prog, 1, nil, nil, nil).RunSequential(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrays["A"][0] != 5 {
		t.Errorf("A(1) = %v", res.Arrays["A"][0])
	}
}

func TestIntrinsics(t *testing.T) {
	prog := parseProg(t, `
      PROGRAM P
      REAL A(8)
      A(1) = MOD(17, 5)
      A(2) = MIN(3, 7)
      A(3) = MAX(3, 7)
      A(4) = ABS(-4.5)
      A(5) = SQRT(16.0)
      A(6) = first$(2, 10, 4)
      A(7) = 7 / 2
      A(8) = 7.0 / 2.0
      END
`)
	res, err := Lower(prog, 1, nil, nil, nil).RunSequential(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, 7, 4.5, 4, 10, 3, 3.5}
	for i, w := range want {
		if !(math.Abs(res.Arrays["A"][i]-w) <= 1e-12) {
			t.Errorf("A(%d) = %v, want %v", i+1, res.Arrays["A"][i], w)
		}
	}
}

func TestFirstDollarSemantics(t *testing.T) {
	prog := parseProg(t, `
      PROGRAM P
      REAL A(3)
      A(1) = first$(3, 1, 4)
      A(2) = first$(3, 4, 4)
      A(3) = first$(1, 10, 4)
      END
`)
	res, err := Lower(prog, 1, nil, nil, nil).RunSequential(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// smallest x >= min with x ≡ anchor (mod step)
	want := []float64{3, 7, 13}
	for i, w := range want {
		if res.Arrays["A"][i] != w {
			t.Errorf("A(%d) = %v, want %v", i+1, res.Arrays["A"][i], w)
		}
	}
}

func TestOutOfBoundsReported(t *testing.T) {
	prog := parseProg(t, `
      PROGRAM P
      REAL A(5)
      A(9) = 1.0
      END
`)
	if _, err := Lower(prog, 1, nil, nil, nil).RunSequential(context.Background(), Options{}); err == nil {
		t.Error("out-of-bounds store must error")
	}
}

func TestGuardedSPMDExecution(t *testing.T) {
	// hand-written SPMD program: each processor writes its own block
	prog := parseProg(t, `
      PROGRAM P
      REAL X(8)
      my$p = myproc()
      do i = my$p * 2 + 1, my$p * 2 + 2
        X(i) = my$p
      enddo
      END
`)
	dist, _ := decomp.NewDist(decomp.NewDecomp(decomp.Block), []int{8}, 4)
	res, err := Lower(prog, 4, map[string]*decomp.Dist{"X": dist}, nil, nil).Run(context.Background(), machine.DefaultConfig(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0, 1, 1, 2, 2, 3, 3}
	for i, w := range want {
		if res.Arrays["X"][i] != w {
			t.Errorf("X[%d] = %v, want %v", i, res.Arrays["X"][i], w)
		}
	}
}

func TestSendRecvStatements(t *testing.T) {
	// proc 0 computes X(1:4), sends to proc 1 which copies to Y
	prog := parseProg(t, `
      PROGRAM P
      REAL X(4), Y(4)
      my$p = myproc()
      if (my$p .EQ. 0) then
        do i = 1,4
          X(i) = i * 10
        enddo
        send X(1:4) to 1
      endif
      if (my$p .EQ. 1) then
        recv X(1:4) from 0
        do i = 1,4
          Y(i) = X(i)
        enddo
      endif
      END
`)
	dist, _ := decomp.NewDist(decomp.Replicated, []int{4}, 2)
	yDist, _ := decomp.NewDist(decomp.NewDecomp(decomp.Block), []int{4}, 2)
	res, err := Lower(prog, 2, map[string]*decomp.Dist{"X": dist, "Y": yDist}, nil, nil).Run(context.Background(), machine.DefaultConfig(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Y is block-distributed: elements 3,4 owned by proc 1 which wrote
	// them from the received X
	if res.Arrays["Y"][2] != 30 || res.Arrays["Y"][3] != 40 {
		t.Errorf("Y = %v", res.Arrays["Y"])
	}
	if res.Stats.Messages != 1 || res.Stats.Words != 4 {
		t.Errorf("stats = %+v", res.Stats)
	}
}

func TestBroadcastStatement(t *testing.T) {
	prog := parseProg(t, `
      PROGRAM P
      REAL X(4), Y(4)
      my$p = myproc()
      if (my$p .EQ. 2) then
        do i = 1,4
          X(i) = 7
        enddo
      endif
      broadcast X(1:4) from 2
      Y(my$p + 1) = X(1)
      END
`)
	yDist, _ := decomp.NewDist(decomp.NewDecomp(decomp.Block), []int{4}, 4)
	res, err := Lower(prog, 4, map[string]*decomp.Dist{"Y": yDist}, nil, nil).Run(context.Background(), machine.DefaultConfig(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if res.Arrays["Y"][i] != 7 {
			t.Errorf("Y[%d] = %v, want 7 (broadcast value)", i, res.Arrays["Y"][i])
		}
	}
}

func TestRemapStatement(t *testing.T) {
	prog := parseProg(t, `
      PROGRAM P
      REAL X(8)
      my$p = myproc()
      do i = my$p * 4 + 1, my$p * 4 + 4
        X(i) = i
      enddo
      remap X(CYCLIC)
      END
`)
	dist, _ := decomp.NewDist(decomp.NewDecomp(decomp.Block), []int{8}, 2)
	res, err := Lower(prog, 2, map[string]*decomp.Dist{"X": dist}, nil, nil).Run(context.Background(), machine.DefaultConfig(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// after the remap every element is valid at its cyclic owner
	for i := 0; i < 8; i++ {
		if res.Arrays["X"][i] != float64(i+1) {
			t.Errorf("X[%d] = %v", i, res.Arrays["X"][i])
		}
	}
	if res.Stats.Remaps != 1 {
		t.Errorf("remaps = %d", res.Stats.Remaps)
	}
	if res.Stats.Words == 0 {
		t.Error("physical remap moved no data")
	}
}

func TestCommonBlockSharing(t *testing.T) {
	prog := parseProg(t, `
      PROGRAM P
      COMMON /blk/ G(4)
      call setter
      call getter
      END
      SUBROUTINE setter
      COMMON /blk/ G(4)
      G(2) = 42
      END
      SUBROUTINE getter
      COMMON /blk/ G(4)
      G(1) = G(2) + 1
      END
`)
	res, err := Lower(prog, 1, nil, nil, nil).RunSequential(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrays["G"][0] != 43 || res.Arrays["G"][1] != 42 {
		t.Errorf("G = %v", res.Arrays["G"])
	}
}

func TestAdjustableBounds(t *testing.T) {
	prog := parseProg(t, `
      PROGRAM P
      REAL X(10)
      call f(X, 1, 10)
      END
      SUBROUTINE f(X, lo, hi)
      REAL X(lo:hi)
      do i = lo, hi
        X(i) = i
      enddo
      END
`)
	res, err := Lower(prog, 1, nil, nil, nil).RunSequential(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrays["X"][9] != 10 {
		t.Errorf("X = %v", res.Arrays["X"])
	}
}

func TestDeterministicStats(t *testing.T) {
	prog := parseProg(t, `
      PROGRAM P
      REAL X(100)
      my$p = myproc()
      if (my$p .GT. 0) then
        send X(1:5) to my$p - 1
      endif
      if (my$p .LT. 3) then
        recv X(6:10) from my$p + 1
      endif
      END
`)
	var last machine.Stats
	for trial := 0; trial < 5; trial++ {
		res, err := Lower(prog, 4, nil, nil, nil).Run(context.Background(), machine.DefaultConfig(4), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if trial > 0 {
			if res.Stats.Time != last.Time || res.Stats.Messages != last.Messages ||
				res.Stats.Words != last.Words || res.Stats.Flops != last.Flops {
				t.Fatalf("nondeterministic stats: %+v vs %+v", res.Stats, last)
			}
		}
		last = res.Stats
	}
}

func TestAllGatherStatement(t *testing.T) {
	// each proc owns a block of X; after allgather, everyone has all
	// values and writes its own block of Y from a remote element
	prog := parseProg(t, `
      PROGRAM P
      REAL X(8), Y(8)
      my$p = myproc()
      do i = my$p * 2 + 1, my$p * 2 + 2
        X(i) = i * 3
      enddo
      allgather X(1:8)
      do i = my$p * 2 + 1, my$p * 2 + 2
        Y(i) = X(9 - i)
      enddo
      END
`)
	xDist, _ := decomp.NewDist(decomp.NewDecomp(decomp.Block), []int{8}, 4)
	yDist, _ := decomp.NewDist(decomp.NewDecomp(decomp.Block), []int{8}, 4)
	res, err := Lower(prog, 4, map[string]*decomp.Dist{"X": xDist, "Y": yDist}, nil, nil).Run(context.Background(), machine.DefaultConfig(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		want := float64((9 - i) * 3)
		if got := res.Arrays["Y"][i-1]; got != want {
			t.Errorf("Y(%d) = %v, want %v", i, got, want)
		}
	}
	// tree gather + tree broadcast: 2*(P-1) messages, where the old
	// all-to-all exchange cost P*(P-1) = 12
	if res.Stats.Messages != 6 {
		t.Errorf("messages = %d, want 6", res.Stats.Messages)
	}
}

func TestAllGatherReplicatedNoop(t *testing.T) {
	prog := parseProg(t, `
      PROGRAM P
      REAL X(4)
      allgather X(1:4)
      END
`)
	res, err := Lower(prog, 2, nil, nil, nil).Run(context.Background(), machine.DefaultConfig(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Messages != 0 {
		t.Errorf("replicated allgather sent %d messages", res.Stats.Messages)
	}
}

func TestMarkAsInPlaceRemap(t *testing.T) {
	prog := parseProg(t, `
      PROGRAM P
      REAL X(8)
      my$p = myproc()
      markas X(CYCLIC)
      do i = my$p + 1, 8, 2
        X(i) = i
      enddo
      END
`)
	dist, _ := decomp.NewDist(decomp.NewDecomp(decomp.Block), []int{8}, 2)
	res, err := Lower(prog, 2, map[string]*decomp.Dist{"X": dist}, nil, nil).Run(context.Background(), machine.DefaultConfig(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Remaps != 0 || res.Stats.Messages != 0 {
		t.Errorf("in-place remap must move nothing: %+v", res.Stats)
	}
	// assembly uses the NEW (cyclic) descriptor
	for i := 1; i <= 8; i++ {
		if res.Arrays["X"][i-1] != float64(i) {
			t.Errorf("X(%d) = %v", i, res.Arrays["X"][i-1])
		}
	}
}

func TestNegativeStepLoop(t *testing.T) {
	prog := parseProg(t, `
      PROGRAM P
      REAL X(5)
      k = 0
      do i = 5, 1, -1
        k = k + 1
        X(k) = i
      enddo
      END
`)
	res, err := Lower(prog, 1, nil, nil, nil).RunSequential(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 4, 3, 2, 1}
	for i, w := range want {
		if res.Arrays["X"][i] != w {
			t.Errorf("X[%d] = %v, want %v", i, res.Arrays["X"][i], w)
		}
	}
}

func TestEmptyLoopBody(t *testing.T) {
	prog := parseProg(t, `
      PROGRAM P
      REAL X(2)
      do i = 5, 1
        X(1) = 99
      enddo
      X(2) = 7
      END
`)
	res, err := Lower(prog, 1, nil, nil, nil).RunSequential(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrays["X"][0] != 0 || res.Arrays["X"][1] != 7 {
		t.Errorf("X = %v (empty loop must not run)", res.Arrays["X"])
	}
}

func TestLogicalOperators(t *testing.T) {
	prog := parseProg(t, `
      PROGRAM P
      REAL X(4)
      a = 3
      if (a .GT. 1 .AND. a .LT. 5) then
        X(1) = 1
      endif
      if (a .LT. 1 .OR. a .EQ. 3) then
        X(2) = 1
      endif
      if (.NOT. (a .EQ. 4)) then
        X(3) = 1
      endif
      if (a .NE. 3) then
        X(4) = 1
      else
        X(4) = 2
      endif
      END
`)
	res, err := Lower(prog, 1, nil, nil, nil).RunSequential(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, 1, 2}
	for i, w := range want {
		if res.Arrays["X"][i] != w {
			t.Errorf("X[%d] = %v, want %v", i, res.Arrays["X"][i], w)
		}
	}
}

func TestGlobalReduceStatement(t *testing.T) {
	prog := parseProg(t, `
      PROGRAM P
      REAL X(4)
      my$p = myproc()
      s = my$p + 1.0
      globalsum s
      m = my$p + 1.0
      globalmax m
      l = my$p + 1.0
      globalmin l
      X(my$p + 1) = s * 100 + m * 10 + l
      END
`)
	xDist, _ := decomp.NewDist(decomp.NewDecomp(decomp.Block), []int{4}, 4)
	res, err := Lower(prog, 4, map[string]*decomp.Dist{"X": xDist}, nil, nil).Run(context.Background(), machine.DefaultConfig(4), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// sum 1+2+3+4 = 10, max 4, min 1 → 1041 everywhere
	for i := 0; i < 4; i++ {
		if res.Arrays["X"][i] != 1041 {
			t.Errorf("X[%d] = %v, want 1041", i, res.Arrays["X"][i])
		}
	}
}

func TestUnknownFunctionErrors(t *testing.T) {
	prog := parseProg(t, `
      PROGRAM P
      REAL X(2)
      X(1) = NOSUCH(3)
      END
`)
	if _, err := Lower(prog, 1, nil, nil, nil).RunSequential(context.Background(), Options{}); err == nil {
		t.Error("unknown function must error")
	}
}

func TestUnknownProcedureErrors(t *testing.T) {
	prog := parseProg(t, `
      PROGRAM P
      call nosuch(1)
      END
`)
	if _, err := Lower(prog, 1, nil, nil, nil).RunSequential(context.Background(), Options{}); err == nil {
		t.Error("unknown procedure must error")
	}
}
