package spmd

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fortd/internal/ast"
	"fortd/internal/decomp"
	"fortd/internal/machine"
	"fortd/internal/parser"
)

// TestEarlyReturn: RETURN unwinds to the CALL from inside an IF and
// from inside a DO; the statements after it must not run. (The
// tree-walker treated RETURN as a no-op: X(1) came out 7.)
func TestEarlyReturn(t *testing.T) {
	src := `
      PROGRAM P
      REAL X(4)
      call inif(X, 1)
      call indo(X)
      X(4) = 4.0
      END
      SUBROUTINE inif(X, k)
      REAL X(4)
      if (k .EQ. 1) then
        X(1) = 5.0
        return
      endif
      X(1) = 7.0
      END
      SUBROUTINE indo(X)
      REAL X(4)
      do i = 1, 10
        X(2) = i
        if (i .EQ. 3) then
          return
        endif
      enddo
      X(3) = 9.0
      END
`
	want := []float64{5, 3, 0, 4}
	check := func(name string, res *RunResult, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, w := range want {
			if got := res.Arrays["X"][i]; got != w {
				t.Errorf("%s: X(%d) = %v, want %v", name, i+1, got, w)
			}
		}
	}
	prog := parseProg(t, src)
	res, err := Lower(prog, 1, nil, nil, nil).RunSequential(context.Background(), Options{})
	check("sequential", res, err)
	res, err = Lower(prog, 4, nil, nil, nil).Run(context.Background(), machine.DefaultConfig(4), Options{})
	check("P=4", res, err)

	// a RETURN in the main program ends the run, cleanly
	main := parseProg(t, `
      PROGRAM P
      REAL X(2)
      X(1) = 1.0
      return
      X(2) = 2.0
      END
`)
	res, err = Lower(main, 1, nil, nil, nil).RunSequential(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrays["X"][0] != 1 || res.Arrays["X"][1] != 0 {
		t.Errorf("main RETURN: X = %v, want [1 0]", res.Arrays["X"])
	}
}

// TestIntrinsicMisuseIsAnError: intrinsic calls that used to panic a
// node goroutine — a divisor that truncates to zero, missing arguments
// — fail the run with an error naming procedure and line, and only when
// the offending statement executes.
func TestIntrinsicMisuseIsAnError(t *testing.T) {
	for _, tc := range []struct{ expr, want string }{
		{"MOD(5, 0.5)", "MOD by zero"},
		{"MOD(5, 0)", "MOD by zero"},
		{"MOD(5)", "MOD takes 2 argument(s), got 1"},
		{"MAX()", "MAX takes at least 1 argument"},
		{"ABS()", "ABS takes 1 argument(s), got 0"},
		{"SQRT()", "SQRT takes 1 argument(s), got 0"},
		{"first$(1, 2)", "first$ takes 3 argument(s), got 2"},
		{"myproc(1)", "myproc takes 0 argument(s), got 1"},
	} {
		src := fmt.Sprintf(`
      PROGRAM P
      REAL X(2)
      X(1) = 1.0
      if (X(1) .GT. 0.0) then
        X(2) = %s
      endif
      END
`, tc.expr)
		prog := parseProg(t, src)
		for _, p := range []int{1, 4} {
			_, err := Lower(prog, p, nil, nil, nil).Run(context.Background(), machine.DefaultConfig(p), Options{})
			if err == nil {
				t.Errorf("%s at P=%d: run succeeded", tc.expr, p)
				continue
			}
			if msg := err.Error(); !strings.Contains(msg, tc.want) || !strings.Contains(msg, "P:6:") {
				t.Errorf("%s at P=%d: error %q, want %q at P:6", tc.expr, p, msg, tc.want)
			}
		}
		// the same statement behind a false guard never fires
		dead := parseProg(t, strings.Replace(src, ".GT. 0.0", ".LT. 0.0", 1))
		if _, err := Lower(dead, 1, nil, nil, nil).RunSequential(context.Background(), Options{}); err != nil {
			t.Errorf("%s in dead code: %v", tc.expr, err)
		}
	}
}

// TestErrorsFireWhenExecuted pins the executor's error messages and
// their timing: lowering resolves names ahead of the run, but a bad
// statement fails only if it executes.
func TestErrorsFireWhenExecuted(t *testing.T) {
	for _, tc := range []struct{ stmt, want string }{
		{"Y(1) = 1.0", "P: unknown array Y"},
		{"X(1) = Y(1)", "P: unknown function Y"},
		{"call nosuch(X)", "P: call to unknown procedure nosuch"},
		{"X(1) = NOSUCH(3)", "P: unknown function NOSUCH"},
		{"X(9) = 1.0", "P: X: index 9 out of bounds [1:4] in dim 0"},
		{"X(1) = X(0)", "P: X: index 0 out of bounds [1:4] in dim 0"},
		{"X(1) = X(1,2)", "P: X: 2 subscripts for a rank-1 array"},
		{"send X(1:2,1:2) to 0", "send X: section has 2 dimensions, the array 1"},
		{"do i = 1, 4, 0\n      enddo", "P: zero loop step"},
		{"X(1) = 1 / (k - k)", "P: integer division by zero"},
		{"send Y(1:2) to 0", "send: unknown array Y"},
		{"broadcast X(1:2) from 9", "broadcast X: bad root 9"},
		{"call sub(X)", "sub: unknown variable undefined$"},
		// a reduction loop that would run on cursors, were its last
		// iteration in bounds
		{"do i = 1, 5\n      t = MAX(t, ABS(X(i)))\n      enddo", "P: X: index 5 out of bounds [1:4] in dim 0"},
	} {
		src := fmt.Sprintf(`
      PROGRAM P
      REAL X(4)
      k = 1
      if (k .EQ. 1) then
      %s
      endif
      END
      SUBROUTINE sub(X)
      REAL X(4)
      X(1) = 0.0
      END
`, tc.stmt)
		prog := parseProg(t, src)
		if tc.want == "sub: unknown variable undefined$" {
			// generated code may read a name no symbol table declares:
			// plant one in the AST the way codegen would
			plantUndeclaredRead(t, prog)
		}
		_, err := Lower(prog, 1, nil, nil, nil).RunSequential(context.Background(), Options{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: error %v, want %q", tc.stmt, err, tc.want)
		}
		dead := parseProg(t, strings.Replace(src, "k .EQ. 1", "k .EQ. 2", 1))
		if _, err := Lower(dead, 1, nil, nil, nil).RunSequential(context.Background(), Options{}); err != nil {
			t.Errorf("%q in dead code: %v", tc.stmt, err)
		}
	}

	// a receive whose message does not fit its section
	mismatch := parseProg(t, `
      PROGRAM P
      REAL X(8)
      my$p = myproc()
      if (my$p .EQ. 0) then
        send X(1:3) to 1
      endif
      if (my$p .EQ. 1) then
        recv X(1:4) from 0
      endif
      END
`)
	_, err := Lower(mismatch, 2, nil, nil, nil).Run(context.Background(), machine.DefaultConfig(2), Options{})
	if want := "recv X: message size 3 != section size 4 (proc 1 from 0)"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("size mismatch: error %v, want %q", err, want)
	}

	// split-phase halves that do not pair: each program's first line
	// names the error, with the statement's unit and line
	files, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "spmd", "*.spmd"))
	if len(files) < 4 {
		t.Fatalf("testdata/spmd: %v", files)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		first, _, _ := strings.Cut(string(src), "\n")
		want := strings.TrimPrefix(first, "! run-error: ")
		_, err = Lower(parseProg(t, string(src)), 2, nil, nil, nil).Run(context.Background(), machine.DefaultConfig(2), Options{})
		var ne *NodeError
		if !errors.As(err, &ne) || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want a NodeError with %q", f, err, want)
		}
	}
}

// TestInitLengthMismatch: a seed with the wrong number of values used to
// be copied as far as it went. It is one *InitError before the machine
// starts when the array's bounds are constants, as a main program's
// are, and the same error from the frame's prologue when they are not.
func TestInitLengthMismatch(t *testing.T) {
	prog := parseProg(t, `
      PROGRAM P
      PARAMETER (n = 4)
      REAL X(n,0:3), Y(2)
      X(1,0) = 1.0
      END
`)
	for _, tc := range []struct {
		init map[string][]float64
		want string
	}{
		{map[string][]float64{"X": make([]float64, 16), "Y": {1, 2}, "Z": {1}}, ""},
		{map[string][]float64{"X": make([]float64, 15)}, "init X: 15 values for 16 elements"},
		{map[string][]float64{"X": make([]float64, 17)}, "init X: 17 values for 16 elements"},
		{map[string][]float64{"Y": nil}, "init Y: 0 values for 2 elements"},
	} {
		for _, p := range []int{1, 16} {
			_, err := Lower(prog, p, nil, nil, nil).Run(context.Background(), machine.DefaultConfig(p), Options{Init: tc.init})
			if tc.want == "" {
				if err != nil {
					t.Errorf("P=%d: %v", p, err)
				}
				continue
			}
			var ie *InitError
			if !errors.As(err, &ie) || err.Error() != tc.want {
				t.Errorf("P=%d: error %v, want exactly %q", p, err, tc.want)
			}
		}
	}

	// bounds only the frame can evaluate: every processor reports it
	late := parseProg(t, `
      PROGRAM P
      REAL X(MOD(7, 4))
      X(1) = 1.0
      END
`)
	_, err := Lower(late, 2, nil, nil, nil).Run(context.Background(), machine.DefaultConfig(2), Options{Init: map[string][]float64{"X": {1, 2}}})
	var ie *InitError
	if !errors.As(err, &ie) || !strings.Contains(err.Error(), "p1: init X: 2 values for 3 elements") {
		t.Errorf("non-constant bounds: error %v, want an InitError from each processor", err)
	}
}

// plantUndeclaredRead rewrites SUB's assignment to read a scalar that
// has no symbol-table entry.
func plantUndeclaredRead(t *testing.T, prog *ast.Program) {
	t.Helper()
	prog.Proc("sub").Body[0].(*ast.Assign).Rhs = &ast.Ident{Name: "undefined$"}
}

// TestComputeOnlyLoopObservesDeadline: a loop with no Compute and no
// communication used to have no cancellation point, so a deadline (or a
// cancelled context) could not stop it. The DO back-edge polls the
// abort flag.
func TestComputeOnlyLoopObservesDeadline(t *testing.T) {
	prog := parseProg(t, `
      PROGRAM SPIN
      do i = 1, 2000000000
      enddo
      END
`)
	start := time.Now()
	_, err := Lower(prog, 1, nil, nil, nil).Run(context.Background(), machine.DefaultConfig(1), Options{Deadline: 200 * time.Millisecond})
	var dl *machine.DeadlockError
	if !errors.As(err, &dl) || !dl.Deadline {
		t.Errorf("Run = %v, want deadline *DeadlockError", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("returned after %v, want under 2s", d)
	}
}

// TestRunawayRecursionIsAnError: recursion is not Fortran 77; it must
// end in an error, not a goroutine stack overflow.
func TestRunawayRecursionIsAnError(t *testing.T) {
	prog := parseProg(t, `
      PROGRAM P
      call f
      END
      SUBROUTINE f
      call f
      END
`)
	_, err := Lower(prog, 1, nil, nil, nil).RunSequential(context.Background(), Options{})
	if err == nil || !strings.Contains(err.Error(), "recursion is not supported") {
		t.Errorf("error %v, want the call-depth error", err)
	}
}

// TestSectionWalker checks pack/unpack against the element-by-element
// enumeration of the oracle on boxes of every shape: unit dimensions,
// strided columns, contiguous rows, clipped and empty sections.
func TestSectionWalker(t *testing.T) {
	arr := &Array{Lo: []int{1, 0, 2}, Hi: []int{4, 3, 6}}
	arr.Data = make([]float64, arr.size(nil))
	for i := range arr.Data {
		arr.Data[i] = float64(i)
	}
	for _, sec := range [][][2]int{
		{{1, 4}, {0, 3}, {2, 6}},
		{{2, 2}, {0, 3}, {4, 4}},
		{{1, 4}, {1, 1}, {3, 3}},
		{{3, 3}, {2, 2}, {2, 6}},
		{{2, 3}, {1, 2}, {3, 5}},
		{{0, 9}, {-1, 1}, {5, 9}},
		{{2, 2}, {3, 3}, {6, 6}},
		{{5, 9}, {0, 3}, {2, 6}},
	} {
		var b bounds
		b.n = len(sec)
		for d, s := range sec {
			b.lo[d], b.hi[d] = s[0], s[1]
		}
		var bx box
		clip(arr, &b, &bx)
		offs := enumerate(arr, sec)
		s := bx.section()
		if s.elems != len(offs) {
			t.Fatalf("%v: %d elements, oracle enumerates %d", sec, s.elems, len(offs))
		}
		packed := make([]float64, s.elems)
		s.walk(packed, arr.Data, false)
		for i, o := range offs {
			if packed[i] != arr.Data[o] {
				t.Fatalf("%v: packed[%d] = %v, want element at offset %d", sec, i, packed[i], o)
			}
		}
		into := make([]float64, len(arr.Data))
		s.walk(packed, into, true)
		for i, o := range offs {
			if into[o] != packed[i] {
				t.Fatalf("%v: unpack missed offset %d", sec, o)
			}
			into[o] = 0
		}
		for o, v := range into {
			if v != 0 {
				t.Fatalf("%v: unpack stored outside the section at offset %d", sec, o)
			}
		}
	}
}

// TestCursorLoops pins which loops are lowered with cursors and which
// executions position them, and which have a strip form (strip.go) and
// which lowering refuses one: the differential lanes show that every one
// of these behaves like the general loop, this shows that the ones
// meant to run on cursors or in strips do, so that the lanes test what
// they claim. Whether a positioned loop runs in strips is
// TestStripDisjoint's.
func TestCursorLoops(t *testing.T) {
	for _, tc := range []struct {
		name, loop string
		cursors    int  // the main program's cursor count (0: the loop does not qualify)
		strips     bool // the loop has a strip form
		positioned bool // the run leaves them positioned
		fails      bool // the loop ends in an error
	}{
		{"stencil", "do i = 2, 7\n a(i,k) = a(i-1,k) + a(i+1,k) + b(i)\n enddo", 4, false, true, false},
		{"reduction", "do i = k, 8\n s = MAX(s, ABS(a(i,k)))\n t = t + a(k,k-1)\n enddo", 2, false, true, false},
		{"negative step", "do i = 8, 1, -3\n b(i) = a(i,i)\n enddo", 2, true, true, false},
		{"constant by PARAMETER", "do i = 1, 7\n b(i) = b(i+one)\n enddo", 2, false, true, false},
		{"intrinsic in an invariant", "do i = 1, 8\n b(i) = a(MOD(k, 5),i)\n enddo", 2, true, true, false},
		{"zero trips", "do i = 3, 2\n b(i) = 1.0\n enddo", 1, true, false, false},
		{"last iteration out of bounds", "do i = 1, 9\n s = s + b(i)\n enddo", 1, false, false, true},
		{"no array", "do i = 1, 8\n s = s + i\n enddo", 0, false, false, false},
		{"assigns the index", "do i = 1, 7\n i = i + 1\n b(i) = 1.0\n enddo", 0, false, false, false},
		{"assigns a subscript's scalar", "do i = 1, 3\n k = k + 1\n b(k) = 1.0\n enddo", 0, false, false, false},
		{"scaled index", "do i = 1, 4\n b(2*i) = 1.0\n enddo", 0, false, false, false},
		{"constant before the index", "do i = 1, 4\n b(1+i) = 1.0\n enddo", 0, false, false, false},
		{"fractional offset", "do i = 1, 4\n b(i+0.5) = 1.0\n enddo", 0, false, false, false},
		{"indirect subscript", "do i = 1, 4\n b(b(i)+1) = 1.0\n enddo", 0, false, false, false},
		{"nested loop", "do i = 1, 4\n do j = 1, 1\n enddo\n b(i) = 1.0\n enddo", 0, false, false, false},
		{"guarded statement", "do i = 1, 4\n if (i .GT. 2) then\n b(i) = 1.0\n endif\n enddo", 0, false, false, false},
		{"two statements, the index and invariants", "do i = 2, 7\n b(i) = -a(i,k) * 0.5 + i / (t - 2)\n a(i,k) = b(i) - a(i,k)\n enddo", 5, true, true, false},
		{"one element written", "do i = 1, 8\n b(k) = b(k) + a(i,k)\n enddo", 3, true, true, false},
		{"carried backward through a second statement", "do i = 2, 8\n b(i) = a(i-1,k)\n a(i,k) = 2.0\n enddo", 3, false, true, false},
		{"written at two offsets", "do i = 2, 8\n b(i) = 1.0\n b(i-1) = 2.0\n enddo", 2, false, true, false},
		{"integer division", "do i = 1, 8\n b(i) = i / 2\n enddo", 1, false, true, false},
		{"intrinsic of an element", "do i = 1, 8\n b(i) = ABS(a(i,k))\n enddo", 2, false, true, false},
		{"comparison", "do i = 1, 8\n b(i) = a(i,k) .GT. t\n enddo", 2, false, true, false},
	} {
		prog := parseProg(t, fmt.Sprintf(`
      PROGRAM P
      PARAMETER (one = 1)
      REAL a(8,8), b(8)
      k = 2
      %s
      END
`, tc.loop))
		pl := Lower(prog, 1, nil, nil, nil)
		if pl.main.ncurs != tc.cursors {
			t.Errorf("%s: lowered with %d cursors, want %d", tc.name, pl.main.ncurs, tc.cursors)
			continue
		}
		if strips := pl.main.nstrip > 0; strips != tc.strips {
			t.Errorf("%s: lowered with a strip form: %v, want %v", tc.name, strips, tc.strips)
		}
		m := machine.New(machine.DefaultConfig(1))
		m.Go(0, func(proc *machine.Proc) {
			fr, err := pl.newArena(1).node(pl, proc).enter(pl.main, nil, nil)
			if err == nil {
				err = runBody(fr, pl.main.body)
			}
			if (err != nil) != tc.fails {
				t.Errorf("%s: error %v, want one: %v", tc.name, err, tc.fails)
			}
			if fr.walk {
				t.Errorf("%s: the frame is still walking after the loop", tc.name)
			}
			for k, c := range fr.curs {
				if (c.data != nil) != tc.positioned {
					t.Errorf("%s: cursor %d positioned: %v, want %v", tc.name, k, c.data != nil, tc.positioned)
				}
			}
		})
		m.Wait()
	}
}

// ---------------------------------------------------------------------------
// Steady-state allocation and microbenchmarks

// onWarmNode lowers src, builds processor 0's main frame on a
// one-processor machine, executes the main body once to warm the frame
// free list, the posted-op pool and the machine's scratch buffer, and
// hands body to f inside the node program.
func onWarmNode(tb testing.TB, src string, f func(body func())) {
	tb.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		tb.Fatal(err)
	}
	pl := Lower(prog, 1, nil, nil, nil)
	m := machine.New(machine.DefaultConfig(1))
	m.Go(0, func(proc *machine.Proc) {
		nd := pl.newArena(1).node(pl, proc)
		fr, err := nd.enter(pl.main, nil, nil)
		if err != nil {
			tb.Error(err)
			return
		}
		body := func() {
			if err := runBody(fr, pl.main.body); err != nil {
				tb.Error(err)
			}
		}
		body()
		f(body)
	})
	if err := m.Wait(); err != nil {
		tb.Fatal(err)
	}
}

const (
	exprKernel = `
      PROGRAM P
      REAL x(64)
      k = 3
      x(k) = 0.5 * x(k+1) + MAX(ABS(x(k-1)), 1.0) / (MOD(k, 4) + 2)
      END
`
	loopKernel = `
      PROGRAM P
      REAL a(32,32)
      do i = 2, 31
        do j = 2, 31
          a(i,j) = 0.25 * (a(i-1,j) + a(i+1,j) + a(i,j-1) + a(i,j+1))
        enddo
      enddo
      END
`
	callKernel = `
      PROGRAM P
      REAL a(32,32)
      k = 2
      t = 0.5
      call dscal(a, 32, k, t)
      call dscal(a, 32, k + 1, 0.25)
      END
      SUBROUTINE dscal(a, n, k, t)
      REAL a(32,32)
      my$p = myproc()
      do i = k+1, n
        a(i,k) = a(i,k) * t
      enddo
      END
`
	reduceKernel = `
      PROGRAM P
      REAL a(128,128)
      k = 3
      call idamax(a, 128, k)
      END
      SUBROUTINE idamax(a, n, k)
      REAL a(128,128)
      s = 0.0
      do i = k, n
        s = MAX(s, ABS(a(i,k)))
      enddo
      END
`
	stencilKernel = `
      PROGRAM P
      REAL a(256,256), b(256,256)
      do i = 2, 255
        do j = 2, 255
          b(i,j) = 0.25 * (a(i-1,j) + a(i+1,j) + a(i,j-1) + a(i,j+1))
        enddo
      enddo
      do i = 2, 255
        do j = 2, 255
          a(i,j) = b(i,j)
        enddo
      enddo
      END
`
	bcastKernel = `
      PROGRAM P
      REAL a(128,128)
      k = 5
      broadcast a(1:128,k) from 0
      postbcast a(1:128,k+1) from 0 tag 1
      broadcast a(k,1:128) from 0
      waitbcast a tag 1
      END
`
)

// TestExecSteadyStateAllocationFree is the executor's analogue of
// machine.TestDESMessageAllocationFree: once a processor is warm, an
// assignment loop, a CALL (frame from the free list, formals bound by
// reference and by value), a reduction loop on cursors, a stencil in
// strips and a broadcast/postbcast/waitbcast pair (section walked into
// scratch, pooled posted op) allocate nothing.
func TestExecSteadyStateAllocationFree(t *testing.T) {
	for _, k := range []struct{ name, src string }{
		{"expr", exprKernel}, {"loop", loopKernel}, {"call", callKernel}, {"reduce", reduceKernel},
		{"stencil", stencilKernel}, {"bcast", bcastKernel},
	} {
		onWarmNode(t, k.src, func(body func()) {
			if avg := testing.AllocsPerRun(20, body); avg != 0 {
				t.Errorf("%s kernel: %.1f allocs per execution, want 0", k.name, avg)
			}
		})
	}
}

// TestRunAllocationIndependentOfIterations extends the steady-state
// contract across processors: a P=4 run's allocation count must not
// depend on how many times its loop of sends, receives, broadcasts
// (one with a "to" clause over a distributed array, which most
// iterations leave some processors outside of) and calls executes.
func TestRunAllocationIndependentOfIterations(t *testing.T) {
	dist := decomp.MustDist(decomp.NewDecomp(decomp.Collapsed, decomp.Block), []int{16, 16}, 4)
	allocs := func(iters int) float64 {
		prog := parseProg(t, fmt.Sprintf(`
      PROGRAM P
      REAL a(16,16), b(16,16)
      my$p = myproc()
      do k = 1, %d
        j = MOD(k, 16) + 1
        broadcast a(1:16,j) from MOD(k, 4)
        broadcast b(1:16,j) from (j - 1) / 4 to b(:,j:16) ring
        postbcast a(j,1:16) from MOD(k + 1, 4) tag 7
        if (my$p .GT. 0) then
          send a(1:4,j) to my$p - 1
        endif
        if (my$p .LT. 3) then
          postrecv a(5:8,j) from my$p + 1 tag 8
        endif
        call scale(a, j, 0.5)
        waitrecv a tag 8
        waitbcast a tag 7
      enddo
      END
      SUBROUTINE scale(a, j, t)
      REAL a(16,16)
      do i = 1, 16
        a(i,j) = a(i,j) * t
      enddo
      END
`, iters))
		return testing.AllocsPerRun(3, func() {
			if _, err := Lower(prog, 4, map[string]*decomp.Dist{"b": dist}, nil, nil).Run(context.Background(), machine.DefaultConfig(4), Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(64), allocs(1024)
	// rings and payload pools may reach a slightly higher water mark on
	// the longer run; 960 more iterations that each allocated anything
	// would blow far past the slack
	if long-short > 40 {
		t.Errorf("1024 iterations cost %.0f allocs, 64 iterations %.0f: the loop allocates", long, short)
	}
}

func benchKernel(b *testing.B, src string) {
	b.ReportAllocs()
	onWarmNode(b, src, func(body func()) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			body()
		}
	})
}

// The per-layer microbenchmarks of the executor (make bench-exec): one
// expression-heavy assignment, a 30×30 five-point stencil sweep that
// updates its array in place (element by element), two CALLs of a
// BLAS-1 style kernel, dgefa's idamax reduction down a column of 126
// elements, jacobi's two statements at n = 256 (in strips), and a column
// broadcast, a row broadcast and a split-phase column broadcast of a
// 128×128 array.
func BenchmarkExecExpr(b *testing.B)    { benchKernel(b, exprKernel) }
func BenchmarkExecLoop(b *testing.B)    { benchKernel(b, loopKernel) }
func BenchmarkExecCall(b *testing.B)    { benchKernel(b, callKernel) }
func BenchmarkExecReduce(b *testing.B)  { benchKernel(b, reduceKernel) }
func BenchmarkExecStencil(b *testing.B) { benchKernel(b, stencilKernel) }
func BenchmarkExecBcast(b *testing.B)   { benchKernel(b, bcastKernel) }

// BenchmarkExecBcastTo is one run of dgefa's broadcasts without its
// arithmetic at P = 64: column k of a (:,BLOCK) array goes from its
// owner along a ring to the owners of the next four columns, for every
// k, so at most 2 of the 64 processors take part in each.
func BenchmarkExecBcastTo(b *testing.B) {
	benchRun(b, `
      PROGRAM P
      REAL a(64,256)
      do k = 1, 255
        broadcast a(1:64,k) from (k - 1) / 4 to a(:,k+1:k+4) ring
      enddo
      END
`, 64, decomp.MustDist(decomp.NewDecomp(decomp.Collapsed, decomp.Block), []int{64, 256}, 64))
}

// BenchmarkExecBcastIdle is dgefa_p1024's broadcasts without its
// arithmetic: 128 columns (:,CYCLIC) on 1 024 processors, column k from
// its owner along a ring to the owners of the columns after it, so the
// 896 processors that hold no column are outside every broadcast.
func BenchmarkExecBcastIdle(b *testing.B) {
	benchRun(b, `
      PROGRAM P
      REAL a(128,128)
      do k = 1, 127
        broadcast a(k+1:128,k) from MOD(k - 1, 1024) to a(:,k+1:128) ring
      enddo
      END
`, 1024, decomp.MustDist(decomp.NewDecomp(decomp.Collapsed, decomp.Cyclic), []int{128, 128}, 1024))
}

// benchRun times whole runs of src on np processors, its array a
// distributed by dist.
func benchRun(b *testing.B, src string, np int, dist *decomp.Dist) {
	prog, err := parser.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	pl := Lower(prog, np, map[string]*decomp.Dist{"a": dist}, nil, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pl.Run(context.Background(), machine.DefaultConfig(np), Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
