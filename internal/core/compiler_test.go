package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"fortd/internal/ast"
	"fortd/internal/codegen"
	"fortd/internal/livedecomp"
	"fortd/internal/machine"
	"fortd/internal/spmd"
)

const fig1Src = `
      PROGRAM P1
      REAL X(100)
      PARAMETER (n$proc = 4)
      DISTRIBUTE X(BLOCK)
      call F1(X)
      END
      SUBROUTINE F1(X)
      REAL X(100)
      do i = 1,95
        X(i) = F(X(i+5))
      enddo
      END
`

func compileSrc(t *testing.T, src string, opts Options) *Compilation {
	t.Helper()
	c, err := Compile(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func initRamp(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

// runBoth runs the compiled program on P processors and the source
// sequentially, returning both results.
func runBoth(t *testing.T, c *Compilation, init map[string][]float64) (*spmd.RunResult, *spmd.RunResult) {
	t.Helper()
	par, err := spmd.Lower(c.Program, c.P, c.MainDists, nil, nil).Run(context.Background(), machine.DefaultConfig(c.P), spmd.Options{Init: init})
	if err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	seq, err := spmd.Lower(c.Source, 1, nil, nil, nil).RunSequential(context.Background(), spmd.Options{Init: init})
	if err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	return par, seq
}

func assertSame(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if !(math.Abs(got[i]-want[i]) <= 1e-9*(1+math.Abs(want[i]))) {
			t.Fatalf("%s[%d] = %v, want %v", name, i, got[i], want[i])
		}
	}
}

// TestFigure1EndToEnd: the §3.1 example compiles to vectorized
// boundary messages and computes the same values as the sequential
// program.
func TestFigure1EndToEnd(t *testing.T) {
	c := compileSrc(t, fig1Src, DefaultOptions())
	if c.P != 4 {
		t.Fatalf("P = %d", c.P)
	}
	init := map[string][]float64{"X": initRamp(100)}
	par, seq := runBoth(t, c, init)
	assertSame(t, "X", par.Arrays["X"], seq.Arrays["X"])

	// message vectorization: each interior processor exchanges one
	// boundary message — 3 messages total, 5 words each
	if par.Stats.Messages != 3 {
		t.Errorf("messages = %d, want 3", par.Stats.Messages)
	}
	if par.Stats.Words != 15 {
		t.Errorf("words = %d, want 15", par.Stats.Words)
	}
}

// TestFigure2Output checks the structural features of the generated
// code: reduced loop bounds with my$p arithmetic and guarded
// vectorized send/recv hoisted outside the loop.
func TestFigure2Output(t *testing.T) {
	c := compileSrc(t, fig1Src, DefaultOptions())
	text := ast.Print(c.Program)
	for _, want := range []string{
		"my$p = myproc()",
		"send X(",
		"recv X(",
		"(my$p .GT. 0)",
		"(my$p .LT. 3)",
		"MIN(", // reduced upper bound min((my$p+1)*25, 95)
	} {
		if !strings.Contains(text, want) {
			t.Errorf("generated code missing %q:\n%s", want, text)
		}
	}
	if c.Report.LoopsReduced != 1 {
		t.Errorf("loops reduced = %d", c.Report.LoopsReduced)
	}
	if c.Report.Messages == 0 {
		t.Error("no messages inserted")
	}
}

// TestFigure3RuntimeResolution: the run-time resolution baseline
// computes the same result with far more messages (one per nonlocal
// element instead of one per boundary).
func TestFigure3RuntimeResolution(t *testing.T) {
	opts := DefaultOptions()
	opts.Strategy = codegen.StrategyRuntime
	c := compileSrc(t, fig1Src, opts)
	init := map[string][]float64{"X": initRamp(100)}
	par, seq := runBoth(t, c, init)
	assertSame(t, "X", par.Arrays["X"], seq.Arrays["X"])

	// 15 nonlocal elements → 15 element messages
	if par.Stats.Messages != 15 {
		t.Errorf("runtime-resolution messages = %d, want 15", par.Stats.Messages)
	}

	// and it must be slower than the compile-time version
	cFast := compileSrc(t, fig1Src, DefaultOptions())
	parFast, _ := runBoth(t, cFast, init)
	if par.Stats.Time <= parFast.Stats.Time {
		t.Errorf("runtime resolution %.1f not slower than compiled %.1f",
			par.Stats.Time, parFast.Stats.Time)
	}
}

const fig4Src = `
      PROGRAM P1
      REAL X(100,100),Y(100,100)
      PARAMETER (n$proc = 4)
      ALIGN Y(i,j) with X(j,i)
      DISTRIBUTE X(BLOCK,:)
      do i = 1,100
S1      call F1(X,i)
      enddo
      do j = 1,100
S2      call F1(Y,j)
      enddo
      END
      SUBROUTINE F1(Z,i)
      REAL Z(100,100)
S3    call F2(Z,i)
      END
      SUBROUTINE F2(Z,i)
      REAL Z(100,100)
      do k = 1,95
        Z(k,i) = F(Z(k+5,i))
      enddo
      END
`

// TestFigure10EndToEnd: the full interprocedural example — cloning,
// delayed computation partitioning (the caller's j loop bounds are
// reduced), and delayed communication vectorized out of the caller's i
// loop (one boundary message instead of 100).
func TestFigure10EndToEnd(t *testing.T) {
	c := compileSrc(t, fig4Src, DefaultOptions())
	init := map[string][]float64{
		"X": initRamp(100 * 100),
		"Y": initRamp(100 * 100),
	}
	par, seq := runBoth(t, c, init)
	assertSame(t, "X", par.Arrays["X"], seq.Arrays["X"])
	assertSame(t, "Y", par.Arrays["Y"], seq.Arrays["Y"])

	// X (row-block): boundary exchange vectorized across the i loop:
	// 3 messages of 5*100 words. Y (column-block): fully local.
	if par.Stats.Messages != 3 {
		t.Errorf("messages = %d, want 3", par.Stats.Messages)
	}
	if par.Stats.Words != 1500 {
		t.Errorf("words = %d, want 1500", par.Stats.Words)
	}
	text := ast.Print(c.Program)
	if !strings.Contains(text, "F1$row") || !strings.Contains(text, "F1$col") {
		t.Errorf("clones missing from output:\n%s", text[:400])
	}
}

// TestFigure12Immediate: without delayed instantiation the same
// program sends one message per invocation of F1$row (100 messages
// through the i loop) instead of one vectorized message.
func TestFigure12Immediate(t *testing.T) {
	opts := DefaultOptions()
	opts.Strategy = codegen.StrategyImmediate
	c := compileSrc(t, fig4Src, opts)
	init := map[string][]float64{
		"X": initRamp(100 * 100),
		"Y": initRamp(100 * 100),
	}
	par, seq := runBoth(t, c, init)
	assertSame(t, "X", par.Arrays["X"], seq.Arrays["X"])
	assertSame(t, "Y", par.Arrays["Y"], seq.Arrays["Y"])

	// 3 processor boundaries × 100 invocations
	if par.Stats.Messages != 300 {
		t.Errorf("immediate messages = %d, want 300", par.Stats.Messages)
	}
	// delayed vs immediate: the paper's 100× message reduction
	cDelayed := compileSrc(t, fig4Src, DefaultOptions())
	parD, _ := runBoth(t, cDelayed, init)
	if par.Stats.Messages != 100*parD.Stats.Messages {
		t.Errorf("expected 100x message reduction: %d vs %d",
			par.Stats.Messages, parD.Stats.Messages)
	}
	if par.Stats.Time <= parD.Stats.Time {
		t.Errorf("immediate %.1f not slower than delayed %.1f", par.Stats.Time, parD.Stats.Time)
	}
}

// TestFigure16DynamicEndToEnd compiles and runs the Figure 15 program
// at each optimization level, checking correctness and the declining
// physical remap counts.
func TestFigure16DynamicEndToEnd(t *testing.T) {
	src := `
      PROGRAM P1
      REAL X(100)
      PARAMETER (n$proc = 4)
      DISTRIBUTE X(BLOCK)
      do k = 1,10
S1      call F1(X)
S2      call F1(X)
      enddo
      call F2(X)
      END
      SUBROUTINE F1(X)
      REAL X(100)
      DISTRIBUTE X(CYCLIC)
      do i = 1,100
        y = y + X(i)
      enddo
      END
      SUBROUTINE F2(X)
      REAL X(100)
      do i = 1,100
        X(i) = 1.0
      enddo
      END
`
	var lastRemaps int64 = 1 << 60
	for _, level := range []livedecomp.Level{livedecomp.OptNone, livedecomp.OptLive, livedecomp.OptHoist, livedecomp.OptKills} {
		opts := DefaultOptions()
		opts.RemapOpt = level
		c := compileSrc(t, src, opts)
		init := map[string][]float64{"X": initRamp(100)}
		par, seq := runBoth(t, c, init)
		assertSame(t, "X", par.Arrays["X"], seq.Arrays["X"])
		if par.Stats.Remaps > lastRemaps {
			t.Errorf("level %v: remaps %d increased over previous %d", level, par.Stats.Remaps, lastRemaps)
		}
		lastRemaps = par.Stats.Remaps
	}
	if lastRemaps != 1 {
		t.Errorf("final physical remaps = %d, want 1", lastRemaps)
	}
}

// TestAliasRestriction enforces §6.4: the same array passed to two
// formals of a procedure that dynamically remaps one of them is a
// compile-time error; without remapping, aliasing is accepted. (Both
// programs only read the aliased formals: defining one is an error of
// acg's storage-association contract.)
func TestAliasRestriction(t *testing.T) {
	forbidden := `
      PROGRAM P
      REAL X(100), Y(100)
      PARAMETER (n$proc = 4)
      DISTRIBUTE X(BLOCK)
      call S(X, X, Y)
      END
      SUBROUTINE S(A, B, C)
      REAL A(100), B(100), C(100)
      DISTRIBUTE A(CYCLIC)
      do i = 1,100
        C(i) = A(i) + B(i)
      enddo
      END
`
	if _, err := Compile(forbidden, DefaultOptions()); err == nil || !strings.Contains(err.Error(), "dynamically remaps") {
		t.Errorf("aliased dynamic decomposition must be rejected, got %v", err)
	}

	allowed := `
      PROGRAM P
      REAL X(100), Y(100)
      PARAMETER (n$proc = 4)
      DISTRIBUTE X(BLOCK)
      call S(X, X, Y)
      END
      SUBROUTINE S(A, B, C)
      REAL A(100), B(100), C(100)
      do i = 2,100
        C(i) = A(i-1) + B(i)
      enddo
      END
`
	if _, err := Compile(allowed, DefaultOptions()); err != nil {
		t.Errorf("aliasing without remapping must compile: %v", err)
	}
}

// TestAliasRestrictionAfterBenignCall is the regression test for the
// early-return bug in checkAliasRestriction: a first call site whose
// callee has no remaps must not stop the check before it reaches a
// later aliased call of a remapping callee.
func TestAliasRestrictionAfterBenignCall(t *testing.T) {
	src := `
      PROGRAM P
      REAL X(100), Y(100)
      PARAMETER (n$proc = 4)
      DISTRIBUTE X(BLOCK)
      DISTRIBUTE Y(BLOCK)
      call BENIGN(Y)
      call S(X, X, Y)
      END
      SUBROUTINE BENIGN(C)
      REAL C(100)
      do i = 1,100
        C(i) = C(i) + 1.0
      enddo
      END
      SUBROUTINE S(A, B, C)
      REAL A(100), B(100), C(100)
      DISTRIBUTE A(CYCLIC)
      do i = 1,100
        C(i) = A(i) + B(i)
      enddo
      END
`
	_, err := Compile(src, DefaultOptions())
	if err == nil {
		t.Fatal("aliased remapping call after a benign call must be rejected")
	}
	if !strings.Contains(err.Error(), "alias") {
		t.Errorf("error = %v, want an aliasing rejection", err)
	}
}

func TestDedupRuntimeProcs(t *testing.T) {
	got := DedupRuntimeProcs(
		[]string{"foo$2", "bar", "foo$1", "bar"},
		map[string]string{"foo$1": "foo", "foo$2": "foo"})
	if len(got) != 2 || got[0] != "bar" || got[1] != "foo" {
		t.Errorf("DedupRuntimeProcs = %v, want [bar foo]", got)
	}
	if got := DedupRuntimeProcs(nil, nil); got != nil {
		t.Errorf("DedupRuntimeProcs(nil) = %v, want nil", got)
	}
}

func TestReportString(t *testing.T) {
	r := Report{Messages: 3, Guards: 1, LoopsReduced: 2, Remaps: 4, Cloned: 5,
		RuntimeProcs: []string{"s1", "s2"}}
	s := r.String()
	for _, want := range []string{
		"messages=3", "guards=1", "loops-reduced=2", "remaps=4", "cloned=5",
		"runtime-resolution=[s1 s2]",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("Report.String() = %q, missing %q", s, want)
		}
	}
	if s := (Report{}).String(); strings.Contains(s, "runtime-resolution") {
		t.Errorf("empty report mentions runtime-resolution: %q", s)
	}
}
