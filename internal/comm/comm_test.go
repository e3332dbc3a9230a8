package comm

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"fortd/internal/acg"
	"fortd/internal/ast"
	"fortd/internal/decomp"
	"fortd/internal/depend"
	"fortd/internal/parser"
	"fortd/internal/partition"
	"fortd/internal/rsd"
	"fortd/internal/sideeffect"
)

type fixture struct {
	prog     *ast.Program
	graph    *acg.Graph
	sections map[string]*SectionSummary
	fx       *sideeffect.Analysis
}

func parseAll(t *testing.T, src string) *fixture {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := acg.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	fx := sideeffect.Compute(g, sideeffect.Own)
	return &fixture{prog: prog, graph: g, sections: ComputeSections(g, fx, localSections), fx: fx}
}

func analyzeProc(t *testing.T, f *fixture, name string, distOf partition.DistOf) *Result {
	t.Helper()
	n := f.graph.Nodes[name]
	proc := n.Proc
	env := proc.Constants()
	deps := depend.Analyze(ast.NewIndex(proc), env)
	plan := partition.Compute(proc, ast.NewIndex(proc), n, distOf, func(string) map[string]*partition.Constraint { return nil }, nil, nil, env)
	res, err := Analyze(proc, n, plan, deps, distOf, func(string) []*Delayed { return nil }, f.sections, f.fx, nil, env)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func blockDistOf(n, p int) partition.DistOf {
	d := decomp.MustDist(decomp.NewDecomp(decomp.Block), []int{n}, p)
	return func(string, ast.Stmt) (*decomp.Dist, bool) { return d, true }
}

// TestShiftClassification: X(i+5) against partition variable i is a
// +5 shift, hoisted out of the loop (no carried true dependence).
func TestShiftClassification(t *testing.T) {
	f := parseAll(t, `
      PROGRAM P
      REAL X(100)
      do i = 1,95
        X(i) = F(X(i+5))
      enddo
      END
`)
	res := analyzeProc(t, f, "P", blockDistOf(100, 4))
	if len(res.Accesses) != 1 {
		t.Fatalf("accesses = %d", len(res.Accesses))
	}
	acc := res.Accesses[0]
	if acc.Kind != KShift || acc.Shift != 5 {
		t.Errorf("access = %v shift %d", acc.Kind, acc.Shift)
	}
	if acc.AtLoop != nil || acc.Delay {
		t.Errorf("shift should be hoisted: AtLoop=%v Delay=%v", acc.AtLoop, acc.Delay)
	}
}

// TestLocalClassification: X(i) against partition variable i needs no
// communication; a recurrence X(i-1) does, inside the loop.
func TestRecurrenceStaysInLoop(t *testing.T) {
	f := parseAll(t, `
      PROGRAM P
      REAL X(100)
      do i = 2,100
        X(i) = X(i-1)
      enddo
      END
`)
	res := analyzeProc(t, f, "P", blockDistOf(100, 4))
	if len(res.Accesses) != 1 {
		t.Fatalf("accesses = %v", res.Accesses)
	}
	acc := res.Accesses[0]
	if acc.Kind != KShift || acc.Shift != -1 {
		t.Errorf("kind=%v shift=%d", acc.Kind, acc.Shift)
	}
	if acc.AtLoop == nil {
		t.Error("carried true dependence must keep the message in the loop")
	}
	// ... which partitions the statement, steps by one and holds nothing
	// else: the message goes around it
	if !acc.Pipelined || acc.NoPipe != "" {
		t.Errorf("pipelined=%v, %q", acc.Pipelined, acc.NoPipe)
	}
}

// TestPointClassification: a scalar assignment reading a distributed
// element is a broadcast keyed to the subscript.
func TestPointClassification(t *testing.T) {
	f := parseAll(t, `
      PROGRAM P
      REAL X(100)
      do k = 1,100
        t = X(k) + 1.0
      enddo
      END
`)
	res := analyzeProc(t, f, "P", blockDistOf(100, 4))
	if len(res.Accesses) != 1 {
		t.Fatalf("accesses = %v", res.Accesses)
	}
	acc := res.Accesses[0]
	if acc.Kind != KPoint {
		t.Fatalf("kind = %v, want broadcast", acc.Kind)
	}
	if acc.AtLoop == nil || acc.AtLoop.Var != "k" {
		t.Errorf("broadcast must be pinned to the k loop")
	}
}

// TestDelayedShift: F1$row's boundary shift anchored on formal i is
// delayed to the caller.
func TestDelayedShift(t *testing.T) {
	f := parseAll(t, `
      SUBROUTINE F2(Z,i)
      REAL Z(100,100)
      do k = 1,95
        Z(k,i) = F(Z(k+5,i))
      enddo
      END
`)
	d := decomp.MustDist(decomp.NewDecomp(decomp.Block, decomp.Collapsed), []int{100, 100}, 4)
	res := analyzeProc(t, f, "F2", func(string, ast.Stmt) (*decomp.Dist, bool) { return d, true })
	if len(res.Accesses) != 1 || !res.Accesses[0].Delay {
		t.Fatalf("accesses = %+v, want delayed", res.Accesses)
	}
	if len(res.Delayed) != 1 {
		t.Fatalf("delayed = %v", res.Delayed)
	}
	del := res.Delayed[0]
	if del.Kind != KShift || del.Shift != 5 || del.Array != "Z" {
		t.Errorf("delayed = %+v", del)
	}
	if !del.Section.Symbolic() {
		t.Errorf("delayed section should anchor i: %v", del.Section)
	}
}

// TestSectionSummaries: interprocedural RSD write/read sets translate
// formals to actuals and expand caller loop anchors.
func TestSectionSummaries(t *testing.T) {
	f := parseAll(t, `
      PROGRAM P
      REAL A(100,100)
      do i = 1,100
        call S(A,i)
      enddo
      END
      SUBROUTINE S(Z,i)
      REAL Z(100,100)
      do k = 1,50
        Z(k,i) = Z(k+1,i) + 1.0
      enddo
      END
`)
	s := f.sections["S"]
	if s == nil {
		t.Fatal("no summary for S")
	}
	w := s.Writes["Z"]
	if len(w) != 1 {
		t.Fatalf("writes = %v", w)
	}
	want := rsd.New("Z", rsd.Range(1, 50), rsd.SymPoint("i", 0))
	if !w[0].Equal(want) {
		t.Errorf("write section = %v, want %v", w[0], want)
	}
	// main's summary has the anchor expanded over the i loop
	m := f.sections["P"]
	mw := m.Writes["A"]
	if len(mw) != 1 {
		t.Fatalf("main writes = %v", mw)
	}
	wantMain := rsd.New("A", rsd.Range(1, 50), rsd.Range(1, 100))
	if !mw[0].Equal(wantMain) {
		t.Errorf("main write section = %v, want %v", mw[0], wantMain)
	}
}

// TestSectionKills is the table of the must-write set §6.3's kill test
// reads (SectionSummary.Kills): a write kills its array only when it
// sweeps the declared extent by the indices of the loops around it, or
// is a call that kills it, and is sure to run: no IF around it, no
// RETURN before it, and every loop around it has constant bounds, runs
// and holds no RETURN. A may-write the summary widens kills nothing.
func TestSectionKills(t *testing.T) {
	for _, tc := range []struct{ name, body, want string }{
		{"sweep", "do i = 1, 16\n X(i) = 1.0\n enddo", "[X]"},
		{"sweep by an offset", "do i = 0, 15\n X(i+1) = 1.0\n enddo", "[X]"},
		{"two dimensions", "do j = 1, 8\n do i = 1, 16\n Y(i,j) = 1.0\n enddo\n enddo", "[Y]"},
		{"diagonal", "do i = 1, 16\n Y(i,i) = 1.0\n enddo", "[]"},
		{"part", "do i = 1, 15\n X(i) = 1.0\n enddo", "[]"},
		{"stride", "do i = 1, 16, 2\n X(i) = 1.0\n enddo", "[]"},
		{"widened subscript", "X(m) = 1.0", "[]"},
		{"in a zero-trip loop", "do k = 1, 0\n do i = 1, 16\n X(i) = 1.0\n enddo\n enddo", "[]"},
		{"variable bound", "do i = 1, m\n X(i) = 1.0\n enddo", "[]"},
		{"under IF", "if (m .GT. 0) then\n do i = 1, 16\n X(i) = 1.0\n enddo\n endif", "[]"},
		{"after RETURN", "if (m .GT. 0) return\n do i = 1, 16\n X(i) = 1.0\n enddo", "[]"},
		{"RETURN in the loop", "do i = 1, 16\n X(i) = 1.0\n if (i .EQ. 2) return\n enddo", "[]"},
		{"in a loop that runs", "do k = 1, 2\n do i = 1, 16\n X(i) = 1.0\n enddo\n enddo", "[X]"},
		{"local array", "do i = 1, 16\n L(i) = 1.0\n enddo", "[]"},
		{"killing call", "call K(Y, X)", "[X]"},
		{"killing call under IF", "if (m .GT. 0) call K(Y, X)", "[]"},
	} {
		f := parseAll(t, `
      PROGRAM P
      REAL X(16), Y(16,8)
      call S(X, Y)
      END
      SUBROUTINE S(X, Y)
      REAL X(16), Y(16,8), L(16)
      m = 0
      `+strings.ReplaceAll(tc.body, "\n", "\n      ")+`
      END
      SUBROUTINE K(Z, W)
      REAL Z(16,8), W(16)
      do i = 1, 16
        W(i) = 0.0
      enddo
      END
`)
		var kills []string
		for name := range f.sections["S"].Kills {
			kills = append(kills, name)
		}
		if sort.Strings(kills); fmt.Sprint(kills) != tc.want {
			t.Errorf("%s: kills %v, want %s", tc.name, kills, tc.want)
		}
	}
}

// TestHoistPredicate is the table of the one question every move of a
// message asks (hoister.writer): one writer W in the loop the message
// leaves, either before the reading statement in the loop body (before)
// or the reading call itself, and the read section R with the loop's
// index as its anchor for the current iteration.
func TestHoistPredicate(t *testing.T) {
	i := &ast.Do{Var: "i", Lo: ast.Int(1), Hi: ast.Int(100)}
	k := &ast.Do{Var: "k", Lo: ast.Int(1), Hi: ast.Int(10)}
	down := &ast.Do{Var: "i", Lo: ast.Int(100), Hi: ast.Int(1), Step: ast.Int(-1)}
	j := &ast.Do{Var: "j", Lo: ast.Add(ast.Id("k"), ast.Int(1)), Hi: ast.Id("n")}
	half := rsd.Dim{Lo: 1, Step: 1, LoVar: "k", HiVar: "n"}
	for _, c := range []struct {
		name        string
		nest        []*ast.Do // the last loop is the one the message leaves
		write, read *rsd.Section
		before      bool
		want        bool // the write blocks the move
	}{
		{"the call writes its own column: earlier iterations wrote others", []*ast.Do{i},
			rsd.New("X", rsd.Range(1, 100), rsd.SymPoint("i", 0)), rsd.New("X", rsd.Range(26, 30), rsd.SymPoint("i", 0)), false, false},
		{"each iteration writes the column before its own: none earlier writes column i", []*ast.Do{i},
			rsd.New("X", rsd.Range(1, 100), rsd.SymPoint("i", -1)), rsd.New("X", rsd.Range(26, 30), rsd.SymPoint("i", 0)), false, false},
		{"each iteration writes the column after its own: iteration i-1 wrote column i", []*ast.Do{i},
			rsd.New("X", rsd.Range(1, 100), rsd.SymPoint("i", 1)), rsd.New("X", rsd.Range(26, 30), rsd.SymPoint("i", 0)), false, true},
		{"counting down, the earlier iterations are above i: i+1 wrote column i", []*ast.Do{down},
			rsd.New("X", rsd.Range(1, 100), rsd.SymPoint("i", -1)), rsd.New("X", rsd.Range(26, 30), rsd.SymPoint("i", 0)), false, true},
		{"counting down, each iteration writes the column after its own: none earlier writes column i", []*ast.Do{down},
			rsd.New("X", rsd.Range(1, 100), rsd.SymPoint("i", 1)), rsd.New("X", rsd.Range(26, 30), rsd.SymPoint("i", 0)), false, false},
		{"unanchored overlap", []*ast.Do{i},
			rsd.New("X", rsd.Range(1, 100), rsd.Range(1, 100)), rsd.New("X", rsd.Range(26, 30), rsd.SymPoint("i", 0)), false, true},
		{"disjoint rows", []*ast.Do{i},
			rsd.New("X", rsd.Range(90, 100), rsd.SymPoint("i", 0)), rsd.New("X", rsd.Range(26, 30), rsd.SymPoint("i", 0)), false, false},
		{"another array", []*ast.Do{i},
			rsd.New("Y", rsd.Range(1, 100), rsd.SymPoint("i", -1)), rsd.New("X", rsd.Range(26, 30), rsd.SymPoint("i", 0)), false, false},
		{"anchored at k at one end only: k+1:n overlaps itself across k", []*ast.Do{k},
			rsd.New("a", half), rsd.New("a", half), false, true},
		{"dgefa: columns k+1:n of the j loop against column k", []*ast.Do{k, j},
			rsd.New("a", half, rsd.SymPoint("j", 0)), rsd.New("a", half, rsd.SymPoint("k", 0)), false, false},
		{"a write earlier in the same iteration", []*ast.Do{i},
			rsd.New("X", rsd.Range(1, 100), rsd.SymPoint("i", 0)), rsd.New("X", rsd.Range(26, 30), rsd.SymPoint("i", 0)), true, true},
		{"a call before the read writes a disjoint constant range", []*ast.Do{i},
			rsd.New("X", rsd.Range(1, 25), rsd.Range(1, 100)), rsd.New("X", rsd.Range(26, 30), rsd.SymPoint("i", 0)), true, false},
		{"a call before the read writes an overlapping constant range", []*ast.Do{i},
			rsd.New("X", rsd.Range(1, 26), rsd.Range(1, 100)), rsd.New("X", rsd.Range(26, 30), rsd.SymPoint("i", 0)), true, true},
	} {
		r := &ast.Call{Name: "r"}
		h := &hoister{order: map[ast.Stmt]int{r: len(c.nest) + 1}}
		for n, l := range c.nest {
			h.order[l] = n
		}
		w := ast.Stmt(r) // the reading call writes, in its earlier iterations
		if c.before {
			w = &ast.Call{Name: "w"}
			h.order[w] = len(c.nest)
		}
		h.writers = []writer{{stmt: w, nest: c.nest, secs: []*rsd.Section{c.write}}}
		got := h.writer(c.read, c.nest, r, len(c.nest)-1, true) != nil
		if got != c.want {
			t.Errorf("%s: W %v, R %v: blocked = %v, want %v", c.name, c.write, c.read, got, c.want)
		}
	}

	// a call in a loop m inside the nest, before the read, writes
	// X(1,m): m is bound over the values it takes, whichever way it counts
	up := &ast.Do{Var: "m", Lo: ast.Int(1), Hi: ast.Int(8)}
	mDown := &ast.Do{Var: "m", Lo: ast.Int(8), Hi: ast.Int(1), Step: ast.Int(-1)}
	anyStep := &ast.Do{Var: "m", Lo: ast.Int(8), Hi: ast.Int(1), Step: ast.Id("s")}
	write := rsd.New("X", rsd.Point(1), rsd.SymPoint("m", 0))
	for _, c := range []struct {
		name  string
		nest  []*ast.Do // the last loop is the one the message leaves; none: to the entry
		inner *ast.Do
		read  *rsd.Section
		want  bool
	}{
		{"leaving i, m counting up writes column 5", []*ast.Do{i}, up, rsd.New("X", rsd.Range(1, 4), rsd.Point(5)), true},
		{"leaving i, m counting down writes column 5", []*ast.Do{i}, mDown, rsd.New("X", rsd.Range(1, 4), rsd.Point(5)), true},
		{"to the entry, m counting down writes column 5", nil, mDown, rsd.New("X", rsd.Range(1, 4), rsd.Point(5)), true},
		{"to the entry, m by a step not known writes column 5", nil, anyStep, rsd.New("X", rsd.Range(1, 4), rsd.Point(5)), true},
		{"to the entry, m counting down writes no column past 8", nil, mDown, rsd.New("X", rsd.Range(1, 4), rsd.Point(9)), false},
		{"to the entry, m counting down writes row 1 only", nil, mDown, rsd.New("X", rsd.Range(2, 4), rsd.Point(5)), false},
	} {
		r, w := &ast.Call{Name: "r"}, &ast.Call{Name: "w"}
		h := &hoister{order: map[ast.Stmt]int{w: len(c.nest), r: len(c.nest) + 1}}
		for n, l := range c.nest {
			h.order[l] = n
		}
		h.writers = []writer{{stmt: w, nest: append(c.nest[:len(c.nest):len(c.nest)], c.inner), secs: []*rsd.Section{write}}}
		if got := h.writer(c.read, c.nest, r, len(c.nest)-1, true) != nil; got != c.want {
			t.Errorf("%s: R %v: blocked = %v, want %v", c.name, c.read, got, c.want)
		}
	}
}

// TestBindConstCountingDown: a section anchored at the index of a loop
// with constant bounds expands over the values the index takes, also
// where the loop counts down or by a step not known.
func TestBindConstCountingDown(t *testing.T) {
	sec := rsd.New("X", rsd.Point(1), rsd.SymPoint("m", 0))
	want := rsd.New("X", rsd.Point(1), rsd.Range(1, 8))
	for _, loop := range []*ast.Do{
		{Var: "m", Lo: ast.Int(1), Hi: ast.Int(8)},
		{Var: "m", Lo: ast.Int(8), Hi: ast.Int(1), Step: ast.Int(-1)},
		{Var: "m", Lo: ast.Int(8), Hi: ast.Int(1), Step: ast.Id("s")},
	} {
		if got := bindConst(sec, loop, nil); !got.Equal(want) {
			t.Errorf("do %s = %v, %v, %v: %v, want %v", loop.Var, loop.Lo, loop.Hi, loop.Step, got, want)
		}
	}
}

// TestReplicatedNoComm: references to replicated arrays never
// communicate.
func TestReplicatedNoComm(t *testing.T) {
	f := parseAll(t, `
      PROGRAM P
      REAL W(50)
      do i = 1,50
        x = x + W(i)
      enddo
      END
`)
	rep := decomp.MustDist(decomp.Replicated, []int{50}, 4)
	res := analyzeProc(t, f, "P", func(string, ast.Stmt) (*decomp.Dist, bool) { return rep, true })
	if len(res.Accesses) != 0 {
		t.Errorf("accesses = %v", res.Accesses)
	}
}

// TestKillsViaSections: covered by livedecomp, but the read filter must
// keep subscript-only references out of the written set.
func TestRefSectionConstLoop(t *testing.T) {
	u, err := parser.ParseProcedure(`
      SUBROUTINE S(A)
      REAL A(10,20)
      do i = 2,9
        do j = 1,20
          A(i,j) = 0.0
        enddo
      enddo
      END
`)
	if err != nil {
		t.Fatal(err)
	}
	refs := depend.CollectRefs(ast.NewIndex(u), nil)
	sec := RefSection(u, refs[0].Expr, refs[0].Nest, nil)
	want := rsd.New("A", rsd.Range(2, 9), rsd.Range(1, 20))
	if !sec.Equal(want) {
		t.Errorf("section = %v, want %v", sec, want)
	}
}

// TestGatherForCyclicShift: a shifted access on a cyclic distribution
// degrades to an allgather rather than a wrong neighbor exchange.
func TestGatherForCyclicShift(t *testing.T) {
	f := parseAll(t, `
      PROGRAM P
      REAL X(100)
      do i = 1,95
        X(i) = F(X(i+5))
      enddo
      END
`)
	d := decomp.MustDist(decomp.NewDecomp(decomp.Cyclic), []int{100}, 4)
	res := analyzeProc(t, f, "P", func(string, ast.Stmt) (*decomp.Dist, bool) { return d, true })
	if len(res.Accesses) != 1 || res.Accesses[0].Kind != KGather {
		t.Errorf("accesses = %+v, want allgather", res.Accesses)
	}
}

// TestInstantiateVectorizesAtCaller: the Figure 10 flow at unit level —
// a delayed shift anchored on formal i expands over the caller's i loop
// and hoists before it. In a caller that is not the main program too:
// bound over the loop, the section is constant, and nothing is left
// for that caller's callers to name.
func TestInstantiateVectorizesAtCaller(t *testing.T) {
	f := parseAll(t, `
      PROGRAM P1
      REAL X(100,100)
      do i = 1,100
        call F1(X,i)
      enddo
      call S(X)
      END
      SUBROUTINE S(X)
      REAL X(100,100)
      do i = 1,100
        call F1(X,i)
      enddo
      END
      SUBROUTINE F1(Z,i)
      REAL Z(100,100)
      do k = 1,95
        Z(k,i) = F(Z(k+5,i))
      enddo
      END
`)
	d := &Delayed{
		Array: "Z", Kind: KShift, Shift: 5,
		Layout: decomp.NewDecomp(decomp.Block, decomp.Collapsed), DistDim: 0,
		Section: rsd.New("Z", rsd.Range(6, 100), rsd.SymPoint("i", 0)),
	}
	dist := decomp.MustDist(decomp.NewDecomp(decomp.Block, decomp.Collapsed), []int{100, 100}, 4)
	distOf := func(string, ast.Stmt) (*decomp.Dist, bool) { return dist, true }
	for _, caller := range []string{"P1", "S"} {
		res := analyzeWithDelayed(t, f, caller, distOf, d)
		if len(callComms(res)) != 1 {
			t.Fatalf("%s: call comms = %v", caller, callComms(res))
		}
		cc := callComms(res)[0]
		if cc.Delay || cc.AtLoop != nil || cc.BeforeLoop == nil {
			t.Fatalf("%s: placement = %+v, want hoisted before the i loop", caller, cc)
		}
		want := rsd.New("X", rsd.Range(6, 100), rsd.Range(1, 100))
		if !cc.Section.Equal(want) {
			t.Errorf("%s: section = %v, want %v", caller, cc.Section, want)
		}
	}
}

// TestInstantiateCarriedStaysInLoop: when the callee also writes the
// array at shifted anchor offsets, the caller loop carries a true
// dependence and the message stays inside the loop.
func TestInstantiateCarriedStaysInLoop(t *testing.T) {
	f := parseAll(t, `
      PROGRAM P1
      REAL X(100,100)
      do i = 2,100
        call F1(X,i)
      enddo
      END
      SUBROUTINE F1(Z,i)
      REAL Z(100,100)
      do k = 1,95
        Z(k,i) = F(Z(k+5,i-1))
      enddo
      END
`)
	d := &Delayed{
		Array: "Z", Kind: KShift, Shift: 5,
		Layout: decomp.NewDecomp(decomp.Block, decomp.Collapsed), DistDim: 0,
		Section: rsd.New("Z", rsd.Range(6, 100), rsd.SymPoint("i", -1)),
	}
	dist := decomp.MustDist(decomp.NewDecomp(decomp.Block, decomp.Collapsed), []int{100, 100}, 4)
	distOf := func(string, ast.Stmt) (*decomp.Dist, bool) { return dist, true }
	res := analyzeWithDelayed(t, f, "P1", distOf, d)
	if len(callComms(res)) != 1 {
		t.Fatalf("call comms = %v", callComms(res))
	}
	if callComms(res)[0].AtLoop == nil {
		t.Errorf("carried dependence must pin the message in the loop: %+v", callComms(res)[0])
	}
}

// TestInstantiateHalfAnchoredStaysInLoop: the callee reads a(k+1:n)
// shifted and writes a(k+1:n); both sections have the same ends, yet
// they overlap across iterations of the caller's k loop, so the delayed
// shift is sent on every iteration, not once before the loop.
func TestInstantiateHalfAnchoredStaysInLoop(t *testing.T) {
	f := parseAll(t, `
      PROGRAM P1
      REAL a(64), b(64)
      do m = 60,64
        do k = 1,10
          call F1(a,b,k,m)
        enddo
      enddo
      END
      SUBROUTINE F1(a,b,k,n)
      REAL a(64), b(64)
      do i = k,n-1
        b(i) = a(i+1)
      enddo
      do i = k+1,n
        a(i) = b(i)*0.5
      enddo
      END
`)
	d := &Delayed{
		Array: "a", Kind: KShift, Shift: 1, Layout: decomp.NewDecomp(decomp.Block), DistDim: 0,
		Section: rsd.New("a", rsd.Dim{Lo: 1, Step: 1, LoVar: "k", HiVar: "n"}),
	}
	dist := decomp.MustDist(decomp.NewDecomp(decomp.Block), []int{64}, 4)
	distOf := func(string, ast.Stmt) (*decomp.Dist, bool) { return dist, true }
	res := analyzeWithDelayed(t, f, "P1", distOf, d)
	if len(callComms(res)) != 1 {
		t.Fatalf("call comms = %v", callComms(res))
	}
	if cc := callComms(res)[0]; cc.AtLoop == nil || cc.AtLoop.Var != "k" {
		t.Errorf("placement = %+v, want inside the k loop", cc)
	}
}

// TestInstantiateAnchorsOnlyAtFixedScalars: the caller assigns m between
// the point the broadcast is placed (the top of the k loop) and the
// call, so the section placed there cannot end at m and widens to the
// declared extent; n, which the caller never assigns, stays an anchor.
func TestInstantiateAnchorsOnlyAtFixedScalars(t *testing.T) {
	f := parseAll(t, `
      SUBROUTINE ELIM(a,n)
      REAL a(12,12)
      do k = 1,n-1
        do j = k+1,n
          m = n - MOD(j,2)
          call F1(a,m,k,j)
          call F1(a,n,k,j)
        enddo
      enddo
      END
      SUBROUTINE F1(a,n,k,j)
      REAL a(12,12)
      do i = k+1,n
        a(i,j) = a(i,j) - a(i,k)
      enddo
      END
`)
	d := &Delayed{
		Array: "a", Kind: KPoint, PointVar: "k", Layout: decomp.NewDecomp(decomp.Collapsed, decomp.Cyclic), DistDim: 1,
		Section: rsd.New("a", rsd.Dim{Lo: 1, Step: 1, LoVar: "k", HiVar: "n"}, rsd.SymPoint("k", 0)),
	}
	dist := decomp.MustDist(decomp.NewDecomp(decomp.Collapsed, decomp.Cyclic), []int{12, 12}, 4)
	distOf := func(string, ast.Stmt) (*decomp.Dist, bool) { return dist, true }
	res := analyzeWithDelayed(t, f, "ELIM", distOf, d)
	if len(callComms(res)) != 2 {
		t.Fatalf("call comms = %v", callComms(res))
	}
	for i, want := range []string{"a[1:12,k]", "a[k+1:n,k]"} {
		if cc := callComms(res)[i]; cc.Section.String() != want || cc.AtLoop == nil || cc.AtLoop.Var != "k" {
			t.Errorf("call %d: section %v at %+v, want %s at the k loop", i+1, cc.Section, cc.AtLoop, want)
		}
	}
}

// TestInstantiateReDelays: a middle procedure passing its own formal
// onward re-delays the communication to its callers.
func TestInstantiateReDelays(t *testing.T) {
	f := parseAll(t, `
      SUBROUTINE MID(W,j)
      REAL W(100,100)
      call F1(W,j)
      END
      SUBROUTINE F1(Z,i)
      REAL Z(100,100)
      do k = 1,95
        Z(k,i) = F(Z(k+5,i))
      enddo
      END
`)
	d := &Delayed{
		Array: "Z", Kind: KShift, Shift: 5,
		Layout: decomp.NewDecomp(decomp.Block, decomp.Collapsed), DistDim: 0,
		Section: rsd.New("Z", rsd.Range(6, 100), rsd.SymPoint("i", 0)),
	}
	dist := decomp.MustDist(decomp.NewDecomp(decomp.Block, decomp.Collapsed), []int{100, 100}, 4)
	distOf := func(string, ast.Stmt) (*decomp.Dist, bool) { return dist, true }
	res := analyzeWithDelayed(t, f, "MID", distOf, d)
	if len(callComms(res)) != 1 || !callComms(res)[0].Delay {
		t.Fatalf("expected re-delay: %+v", callComms(res))
	}
	if len(res.Delayed) != 1 {
		t.Fatalf("delayed = %v", res.Delayed)
	}
	out := res.Delayed[0]
	if out.Array != "W" || !out.Section.Symbolic() {
		t.Errorf("re-delayed = %+v section %v", out, out.Section)
	}
	// the anchor is renamed to MID's formal
	if out.Section.Dims[1].LoVar != "j" {
		t.Errorf("anchor = %q, want j", out.Section.Dims[1].LoVar)
	}
}

// analyzeWithDelayed runs Analyze for one procedure with a synthetic
// delayed descriptor attached to its callee.
func analyzeWithDelayed(t *testing.T, f *fixture, name string, distOf partition.DistOf, d *Delayed) *Result {
	t.Helper()
	n := f.graph.Nodes[name]
	proc := n.Proc
	env := proc.Constants()
	deps := depend.Analyze(ast.NewIndex(proc), env)
	plan := partition.Compute(proc, ast.NewIndex(proc), n, distOf, func(string) map[string]*partition.Constraint { return nil }, nil, nil, env)
	res, err := Analyze(proc, n, plan, deps, distOf,
		func(callee string) []*Delayed {
			if callee == "F1" {
				return []*Delayed{d}
			}
			return nil
		}, f.sections, f.fx, nil, env)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestInstantiatePointAtDefiningLoop: a delayed broadcast keyed to a
// formal lands at the caller loop defining the variable.
func TestInstantiatePointAtDefiningLoop(t *testing.T) {
	f := parseAll(t, `
      PROGRAM P1
      REAL X(100,100)
      do k = 1,99
        call F1(X,k)
      enddo
      END
      SUBROUTINE F1(Z,kk)
      REAL Z(100,100)
      do i = 1,100
        Z(i,kk) = Z(i,kk) * 2.0
      enddo
      END
`)
	d := &Delayed{
		Array: "Z", Kind: KPoint, PointVar: "kk", PointOff: 0,
		Layout: decomp.NewDecomp(decomp.Collapsed, decomp.Cyclic), DistDim: 1,
		Section: rsd.New("Z", rsd.Range(1, 100), rsd.SymPoint("kk", 0)),
	}
	dist := decomp.MustDist(decomp.NewDecomp(decomp.Collapsed, decomp.Cyclic), []int{100, 100}, 4)
	distOf := func(string, ast.Stmt) (*decomp.Dist, bool) { return dist, true }
	res := analyzeWithDelayed(t, f, "P1", distOf, d)
	if len(callComms(res)) != 1 {
		t.Fatalf("call comms = %v", callComms(res))
	}
	cc := callComms(res)[0]
	if cc.AtLoop == nil || cc.AtLoop.Var != "k" {
		t.Errorf("broadcast must pin to the k loop: %+v", cc)
	}
	if cc.PointVar != "k" {
		t.Errorf("point var = %q", cc.PointVar)
	}
}

// TestInstantiatePointAtExpressionActual: a delayed broadcast whose root
// variable is bound to v ± c keeps its root and its column in the
// caller's v; bound to any other expression, the caller cannot name the
// root and gathers the section, widened over the column.
func TestInstantiatePointAtExpressionActual(t *testing.T) {
	for _, tc := range []struct {
		actual, pointVar string
		pointOff         int
		section          string
		kind             Kind
	}{
		{"k+1", "k", 1, "X[1:100,k+1]", KPoint},
		{"k-2", "k", -2, "X[1:100,k-2]", KPoint},
		{"3+k", "k", 3, "X[1:100,k+3]", KPoint},
		{"2*k", "", 0, "X[1:100,1:100]", KGather},
		{"7", "", 0, "X[1:100,1:100]", KGather},
	} {
		f := parseAll(t, `
      PROGRAM P1
      REAL X(100,100)
      do k = 3,90
        call F1(X,`+tc.actual+`)
      enddo
      END
      SUBROUTINE F1(Z,kk)
      REAL Z(100,100)
      do i = 1,100
        Z(i,1) = Z(i,kk) * 2.0
      enddo
      END
`)
		d := &Delayed{
			Array: "Z", Kind: KPoint, PointVar: "kk",
			Layout: decomp.NewDecomp(decomp.Collapsed, decomp.Cyclic), DistDim: 1,
			Section: rsd.New("Z", rsd.Range(1, 100), rsd.SymPoint("kk", 0)),
		}
		dist := decomp.MustDist(decomp.NewDecomp(decomp.Collapsed, decomp.Cyclic), []int{100, 100}, 4)
		distOf := func(string, ast.Stmt) (*decomp.Dist, bool) { return dist, true }
		res := analyzeWithDelayed(t, f, "P1", distOf, d)
		if len(callComms(res)) != 1 {
			t.Fatalf("%s: call comms = %v", tc.actual, callComms(res))
		}
		cc := callComms(res)[0]
		if cc.Kind != tc.kind || cc.Section.String() != tc.section || cc.PointVar != tc.pointVar || cc.PointOff != tc.pointOff {
			t.Errorf("%s: %v of %s at %q%+d, want %v of %s at %q%+d", tc.actual, cc.Kind, cc.Section, cc.PointVar, cc.PointOff,
				tc.kind, tc.section, tc.pointVar, tc.pointOff)
		}
	}
}

// localSections is a unit's local section summary and its index.
func localSections(u *ast.Procedure) (*SectionSummary, *ast.Index) {
	ix := ast.NewIndex(u)
	return LocalSections(u, ix), ix
}

// callComms returns the messages res instantiated from callees.
func callComms(res *Result) []*Access {
	var out []*Access
	for _, acc := range res.Accesses {
		if acc.Site != nil {
			out = append(out, acc)
		}
	}
	return out
}
