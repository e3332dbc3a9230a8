package codegen

import (
	"strings"
	"testing"

	"fortd/internal/acg"
	"fortd/internal/ast"
	"fortd/internal/comm"
	"fortd/internal/decomp"
	"fortd/internal/depend"
	"fortd/internal/parser"
	"fortd/internal/partition"
	"fortd/internal/rsd"
)

// generate runs the local pipeline (partition → comm → codegen) for a
// single-procedure program with the given distribution.
func generate(t *testing.T, src string, d decomp.Decomp, sizes []int, p int) (*Result, *ast.Procedure) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := acg.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	proc := prog.Units[0]
	n := g.Nodes[proc.Name]
	dist := decomp.MustDist(d, sizes, p)
	distOf := func(string, ast.Stmt) (*decomp.Dist, bool) { return dist, true }
	env := proc.Constants()
	deps := depend.Analyze(ast.NewIndex(proc), env)
	plan := partition.Compute(proc, ast.NewIndex(proc), n, distOf, func(string) map[string]*partition.Constraint { return nil }, nil, nil, env)
	commRes, err := comm.Analyze(proc, n, plan, deps, distOf, func(string) []*comm.Delayed { return nil }, comm.ComputeSections(g, nil, func(u *ast.Procedure) (*comm.SectionSummary, *ast.Index) {
		ix := ast.NewIndex(u)
		return comm.LocalSections(u, ix), ix
	}), nil, nil, env)
	if err != nil {
		t.Fatal(err)
	}
	body, res, err := Generate(&Input{Proc: proc, Plan: plan, Comm: commRes, DistOf: distOf, Env: env, P: p})
	if err != nil {
		t.Fatal(err)
	}
	return res, withBody(proc, body)
}

// withBody is proc's header over a generated body.
func withBody(proc *ast.Procedure, body []ast.Stmt) *ast.Procedure {
	cp := *proc
	cp.Body = body
	return &cp
}

func listing(proc *ast.Procedure) string {
	return string(ast.AppendProcedure(nil, proc))
}

// TestGenerateShiftExchange: Figure 2's structure — guarded send/recv
// before the reduced loop, my$p prologue.
func TestGenerateShiftExchange(t *testing.T) {
	res, proc := generate(t, `
      SUBROUTINE F1(X)
      REAL X(100)
      do i = 1,95
        X(i) = F(X(i+5))
      enddo
      END
`, decomp.NewDecomp(decomp.Block), []int{100}, 4)
	text := listing(proc)
	if res.LoopsReduced != 1 {
		t.Errorf("loops reduced = %d", res.LoopsReduced)
	}
	if res.MessagesInserted != 2 {
		t.Errorf("messages = %d (send+recv)", res.MessagesInserted)
	}
	// statement order: prologue, guarded exchange, loop
	sendIdx := strings.Index(text, "send X(")
	loopIdx := strings.Index(text, "do i =")
	if sendIdx < 0 || loopIdx < 0 || sendIdx > loopIdx {
		t.Errorf("send not hoisted before loop:\n%s", text)
	}
	if !strings.HasPrefix(strings.TrimSpace(strings.Split(text, "\n")[2]), "my$p = myproc()") {
		t.Errorf("prologue missing:\n%s", text)
	}
}

// TestGenerateNegativeShift: X(i-2) exchanges in the other direction.
func TestGenerateNegativeShift(t *testing.T) {
	res, proc := generate(t, `
      SUBROUTINE S(X)
      REAL X(100)
      do i = 3,100
        X(i) = F(X(i-2))
      enddo
      END
`, decomp.NewDecomp(decomp.Block), []int{100}, 4)
	text := listing(proc)
	if !strings.Contains(text, "to (my$p + 1)") {
		t.Errorf("negative shift must send upward:\n%s", text)
	}
	if !strings.Contains(text, "from (my$p - 1)") {
		t.Errorf("negative shift must receive from below:\n%s", text)
	}
	_ = res
}

// TestGenerateGuard: a constant-subscript write is wrapped in an
// ownership guard.
func TestGenerateGuard(t *testing.T) {
	res, proc := generate(t, `
      SUBROUTINE S(X)
      REAL X(100)
      X(42) = 1.0
      END
`, decomp.NewDecomp(decomp.Block), []int{100}, 4)
	text := listing(proc)
	if res.GuardsInserted != 1 {
		t.Errorf("guards = %d", res.GuardsInserted)
	}
	if !strings.Contains(text, "if (((41 / 25) .EQ. my$p)) then") {
		t.Errorf("guard missing:\n%s", text)
	}
}

// TestGenerateBroadcast: a scalar read of a distributed element becomes
// a broadcast pinned inside the defining loop, before the consumer.
func TestGenerateBroadcast(t *testing.T) {
	res, proc := generate(t, `
      SUBROUTINE S(X)
      REAL X(100)
      do k = 1,100
        t = X(k) * 2.0
      enddo
      END
`, decomp.NewDecomp(decomp.Block), []int{100}, 4)
	text := listing(proc)
	if !strings.Contains(text, "broadcast X(k) from ((k - 1) / 25)") {
		t.Errorf("broadcast missing:\n%s", text)
	}
	// inside the k loop
	bIdx := strings.Index(text, "broadcast")
	loopIdx := strings.Index(text, "do k =")
	if bIdx < loopIdx {
		t.Errorf("broadcast must be inside the loop:\n%s", text)
	}
	_ = res
}

// TestGenerateRuntimeStructure: the Figure 3 shape — per-element
// owner tests, send/recv under owner guards.
func TestGenerateRuntimeStructure(t *testing.T) {
	prog, err := parser.Parse(`
      SUBROUTINE F1(X)
      REAL X(100)
      do i = 1,95
        X(i) = F(X(i+5))
      enddo
      END
`)
	if err != nil {
		t.Fatal(err)
	}
	proc := prog.Units[0]
	dist := decomp.MustDist(decomp.NewDecomp(decomp.Block), []int{100}, 4)
	body, res := GenerateRuntime(proc, ast.NewIndex(proc), func(string, ast.Stmt) (*decomp.Dist, bool) { return dist, true }, nil)
	text := listing(withBody(proc, body))
	for _, want := range []string{
		"if (((((i + 5) - 1) / 25) .NE. ((i - 1) / 25)))",
		"send X((i + 5)",
		"recv X((i + 5)",
		"X(i) = F(X((i + 5)))",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	// everything inside the (unreduced) loop
	if res.LoopsReduced != 0 {
		t.Errorf("runtime resolution must not reduce bounds")
	}
}

// TestEmitCallCommPoint: a delayed broadcast instantiated at a call
// site resolves formals to actuals.
func TestEmitCallCommPoint(t *testing.T) {
	prog, err := parser.Parse(`
      PROGRAM P
      REAL A(50,50)
      do k = 1,50
        call work(A, k)
      enddo
      END
      SUBROUTINE work(a, kk)
      REAL a(50,50)
      a(1,1) = 0.0
      END
`)
	if err != nil {
		t.Fatal(err)
	}
	g, err := acg.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	site := g.Nodes[prog.Main().Name].Calls[0]
	dist := decomp.MustDist(decomp.NewDecomp(decomp.Collapsed, decomp.Cyclic), []int{50, 50}, 4)
	cc := &comm.CallComm{
		Site: site, Array: "A", Dist: dist,
		D:        &comm.Delayed{Kind: comm.KPoint, DistDim: 1},
		Section:  rsd.New("A", rsd.Range(1, 50), rsd.SymPoint("kk", 0)),
		PointVar: "k", PointOff: 0,
	}
	in := &Input{Proc: prog.Main(), P: 4}
	stmts, err := emitCallComm(in, cc)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 1 {
		t.Fatalf("stmts = %v", stmts)
	}
	bc, ok := stmts[0].(*ast.Broadcast)
	if !ok {
		t.Fatalf("stmt = %T", stmts[0])
	}
	if bc.Root.String() != "MOD((k - 1),4)" {
		t.Errorf("root = %s", bc.Root)
	}
	if bc.Sec[1].Lo.String() != "k" {
		t.Errorf("sec = %v", bc.Sec[1].Lo)
	}
	// a dimension of unknown extent is a conservative answer to a
	// dependence test, never a section to send
	cc.Section = rsd.New("A", comm.UnknownExtent, rsd.SymPoint("k", 0))
	if _, err := emitCallComm(in, cc); err == nil || !strings.Contains(err.Error(), "no declared extent") {
		t.Errorf("section of unknown extent: err = %v, want refused", err)
	}
}

// TestUnsupportedShiftErrors: shift emission on a cyclic distribution
// must fail loudly rather than emit wrong code.
func TestUnsupportedShiftErrors(t *testing.T) {
	dist := decomp.MustDist(decomp.NewDecomp(decomp.Cyclic), []int{100}, 4)
	if _, err := emitShift("X", dist, 0, 1, []ast.SecDim{{}}); err == nil {
		t.Error("cyclic shift emission must error")
	}
}

// TestAggregation: two references to the same nonlocal element produce
// one message, not two (§5.4 aggregation).
func TestAggregation(t *testing.T) {
	res, proc := generate(t, `
      SUBROUTINE S(X)
      REAL X(100)
      do k = 1,100
        t = X(k) + X(k)
      enddo
      END
`, decomp.NewDecomp(decomp.Block), []int{100}, 4)
	if res.MessagesAggregated != 1 {
		t.Errorf("aggregated = %d, want 1", res.MessagesAggregated)
	}
	text := listing(proc)
	if strings.Count(text, "broadcast") != 1 {
		t.Errorf("want exactly one broadcast:\n%s", text)
	}
}

// TestRingRule: a broadcast travels along a ring only when its root
// rotates — the owner of the unit-step loop's index plus a constant,
// under CYCLIC — and its "to" clause, under CYCLIC too, starts one past
// the root's subscript. A rotating root without a clause says why it
// stays a tree; anything else stays a tree silently.
func TestRingRule(t *testing.T) {
	cyclic := decomp.MustDist(decomp.NewDecomp(decomp.Collapsed, decomp.Cyclic), []int{8, 8}, 4)
	block := decomp.MustDist(decomp.NewDecomp(decomp.Collapsed, decomp.Block), []int{8, 8}, 4)
	k := ast.Id("k")
	to := func(lo ast.Expr) *ast.Receivers {
		return &ast.Receivers{Array: "a", Dim: 1, Rank: 2, Lo: lo, Hi: ast.Int(8)}
	}
	loop := &ast.Do{Var: "k", Lo: ast.Int(1), Hi: ast.Int(7)}
	for _, c := range []struct {
		name   string
		at     *ast.Do
		root   *decomp.Dist
		point  ast.Expr
		to     *ast.Receivers
		toDist *decomp.Dist
		ring   bool
		why    string
	}{
		{"dgefa", loop, cyclic, k, to(ast.Add(k, ast.Int(1))), cyclic, true, ""},
		{"shifted point", loop, cyclic, ast.Add(k, ast.Int(2)), to(ast.Add(ast.Int(3), k)), cyclic, true, ""},
		{"no to clause", loop, cyclic, k, nil, nil, false, whyToReplicated},
		{"BLOCK root", loop, block, k, to(ast.Add(k, ast.Int(1))), cyclic, false, ""},
		{"BLOCK receivers", loop, cyclic, k, to(ast.Add(k, ast.Int(1))), block, false, ""},
		{"first receiver is the root", loop, cyclic, k, to(k), cyclic, false, ""},
		{"step 2", &ast.Do{Var: "k", Lo: ast.Int(1), Hi: ast.Int(7), Step: ast.Int(2)}, cyclic, k, to(ast.Add(k, ast.Int(1))), cyclic, false, ""},
		{"another loop's index", loop, cyclic, ast.Id("j"), to(ast.Add(ast.Id("j"), ast.Int(1))), cyclic, false, ""},
		{"hoisted above every loop", nil, cyclic, k, to(ast.Add(k, ast.Int(1))), cyclic, false, ""},
	} {
		ring, why := ring(&Input{}, c.at, c.root, c.point, c.to, c.toDist, whyToReplicated)
		if ring != c.ring || why != c.why || c.to != nil && c.to.Ring != c.ring {
			t.Errorf("%s: ring %v (clause %+v), why %q; want %v, %q", c.name, ring, c.to, why, c.ring, c.why)
		}
	}
}
