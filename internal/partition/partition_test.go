package partition

import (
	"testing"

	"fortd/internal/acg"
	"fortd/internal/ast"
	"fortd/internal/decomp"
	"fortd/internal/parser"
)

// mustInt evaluates e, which the test expects to be a constant in env.
func mustInt(t *testing.T, e ast.Expr, env ast.Env) int {
	t.Helper()
	v, ok := ast.EvalInt(e, env)
	if !ok {
		t.Fatalf("%s is not a constant", e)
	}
	return v
}

func buildNode(t *testing.T, src, procName string) (*ast.Procedure, *acg.Node) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := acg.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	n := g.Nodes[procName]
	if n == nil {
		t.Fatalf("no node %s", procName)
	}
	return n.Proc, n
}

func blockDist(n, p int) *decomp.Dist {
	return decomp.MustDist(decomp.NewDecomp(decomp.Block), []int{n}, p)
}

func noDelayed(string) map[string]*Constraint { return nil }

// TestLocalLoopReduction: Figure 1's owner-computes rule reduces the
// local i loop.
func TestLocalLoopReduction(t *testing.T) {
	proc, node := buildNode(t, `
      SUBROUTINE F1(X)
      REAL X(100)
      do i = 1,95
        X(i) = F(X(i+5))
      enddo
      END
`, "F1")
	dist := blockDist(100, 4)
	plan := Compute(proc, ast.NewIndex(proc), node, func(string, ast.Stmt) (*decomp.Dist, bool) { return dist, true }, noDelayed, nil, nil, nil)
	if len(plan.Items) != 1 {
		t.Fatalf("items = %d", len(plan.Items))
	}
	item := plan.Items[0]
	if item.Loop == nil || item.Guard || item.DelayVar != "" {
		t.Fatalf("item = %+v, want loop reduction", item)
	}
	if len(plan.LoopBounds) != 1 {
		t.Fatalf("LoopBounds = %v", plan.LoopBounds)
	}
}

// TestDelayedConstraint: a formal-indexed distributed dimension delays
// the constraint to callers (F1$col's situation).
func TestDelayedConstraint(t *testing.T) {
	proc, node := buildNode(t, `
      SUBROUTINE F2(Z,i)
      REAL Z(100,100)
      do k = 1,95
        Z(k,i) = F(Z(k+5,i))
      enddo
      END
`, "F2")
	dist := decomp.MustDist(decomp.NewDecomp(decomp.Collapsed, decomp.Block), []int{100, 100}, 4)
	plan := Compute(proc, ast.NewIndex(proc), node, func(string, ast.Stmt) (*decomp.Dist, bool) { return dist, true }, noDelayed, nil, nil, nil)
	item := plan.Items[0]
	if item.DelayVar != "i" {
		t.Fatalf("item = %+v, want delayed on i", item)
	}
	if _, ok := plan.Delayed["i"]; !ok {
		t.Fatalf("Delayed = %v", plan.Delayed)
	}
}

// TestScalarWorkBlocksReduction: a scalar assignment in the loop body
// means every processor needs every iteration — no bounds reduction.
func TestScalarWorkBlocksReduction(t *testing.T) {
	proc, node := buildNode(t, `
      SUBROUTINE S(X)
      REAL X(100)
      do i = 1,100
        s = s + 1.0
        X(i) = s
      enddo
      END
`, "S")
	dist := blockDist(100, 4)
	plan := Compute(proc, ast.NewIndex(proc), node, func(string, ast.Stmt) (*decomp.Dist, bool) { return dist, true }, noDelayed, nil, nil, nil)
	if len(plan.LoopBounds) != 0 {
		t.Errorf("loop wrongly reduced: %v", plan.LoopBounds)
	}
	for _, item := range plan.Items {
		if item.C != nil && !item.Guard {
			t.Errorf("distributed item not guarded: %+v", item)
		}
	}
}

// TestMixedConstraintsForceGuards: two arrays with different
// distributions written in the same loop cannot share one reduction.
func TestMixedConstraintsForceGuards(t *testing.T) {
	proc, node := buildNode(t, `
      SUBROUTINE S(X,Y)
      REAL X(100), Y(100)
      do i = 1,100
        X(i) = 1.0
        Y(i) = 2.0
      enddo
      END
`, "S")
	xDist := blockDist(100, 4)
	yDist := decomp.MustDist(decomp.NewDecomp(decomp.Cyclic), []int{100}, 4)
	plan := Compute(proc, ast.NewIndex(proc), node, func(name string, _ ast.Stmt) (*decomp.Dist, bool) {
		if name == "X" {
			return xDist, true
		}
		return yDist, true
	}, noDelayed, nil, nil, nil)
	if len(plan.LoopBounds) != 0 {
		t.Errorf("conflicting constraints must not reduce: %v", plan.LoopBounds)
	}
	guards := 0
	for _, item := range plan.Items {
		if item.Guard {
			guards++
		}
	}
	if guards != 2 {
		t.Errorf("guards = %d, want 2", guards)
	}
}

// TestSameConstraintShares: two same-distribution writes share the
// reduction.
func TestSameConstraintShares(t *testing.T) {
	proc, node := buildNode(t, `
      SUBROUTINE S(X,Y)
      REAL X(100), Y(100)
      do i = 1,100
        X(i) = 1.0
        Y(i) = 2.0
      enddo
      END
`, "S")
	dist := blockDist(100, 4)
	plan := Compute(proc, ast.NewIndex(proc), node, func(string, ast.Stmt) (*decomp.Dist, bool) { return dist, true }, noDelayed, nil, nil, nil)
	if len(plan.LoopBounds) != 1 {
		t.Errorf("shared constraint should reduce once: %v", plan.LoopBounds)
	}
}

// TestConstantSubscriptGuard: X(5) = ... has a single owner.
func TestConstantSubscriptGuard(t *testing.T) {
	proc, node := buildNode(t, `
      SUBROUTINE S(X)
      REAL X(100)
      X(5) = 1.0
      END
`, "S")
	dist := blockDist(100, 4)
	plan := Compute(proc, ast.NewIndex(proc), node, func(string, ast.Stmt) (*decomp.Dist, bool) { return dist, true }, noDelayed, nil, nil, nil)
	if !plan.Items[0].Guard {
		t.Errorf("constant subscript must guard: %+v", plan.Items[0])
	}
}

// TestBoundExprsBlock reproduces the Figure 2 arithmetic: loop [1:95]
// over a 100-element block distribution on 4 processors becomes
// [my$p*25+1 : MIN(95,(my$p+1)*25)].
func TestBoundExprsBlock(t *testing.T) {
	c := &Constraint{Array: "X", Dist: blockDist(100, 4)}
	lo, hi, step, ok := BoundExprs(c, &ast.Do{Var: "i", Lo: ast.Int(1), Hi: ast.Int(95)}, nil)
	if !ok {
		t.Fatal("block reduction failed")
	}
	if step != nil {
		t.Errorf("step = %v", step)
	}
	if lo.String() != "((my$p * 25) + 1)" {
		t.Errorf("lo = %s", lo)
	}
	if hi.String() != "MIN(95,((my$p + 1) * 25))" {
		t.Errorf("hi = %s", hi)
	}
	// evaluate per processor
	for p := 0; p < 4; p++ {
		env := ast.MapEnv{MyP: p}
		l := mustInt(t, lo, env)
		h := mustInt(t, hi, env)
		wantLo := p*25 + 1
		wantHi := (p + 1) * 25
		if wantHi > 95 {
			wantHi = 95
		}
		if l != wantLo || h != wantHi {
			t.Errorf("p%d: [%d:%d], want [%d:%d]", p, l, h, wantLo, wantHi)
		}
	}
}

// TestBoundExprsBlockWithOffset: subscript v+2 shifts the owned range.
func TestBoundExprsBlockWithOffset(t *testing.T) {
	c := &Constraint{Array: "X", Dist: blockDist(100, 4), Offset: 2}
	lo, hi, _, ok := BoundExprs(c, &ast.Do{Var: "i", Lo: ast.Int(1), Hi: ast.Int(98)}, nil)
	if !ok {
		t.Fatal("reduction failed")
	}
	for p := 0; p < 4; p++ {
		env := ast.MapEnv{MyP: p}
		l := mustInt(t, lo, env)
		h := mustInt(t, hi, env)
		// every iteration v in [l:h] must have owner(v+2) == p
		for v := l; v <= h; v++ {
			if o := c.Dist.OwnerIndex(v + 2); o != p {
				t.Fatalf("p%d: iteration %d writes element %d owned by %d", p, v, v+2, o)
			}
		}
	}
}

// TestBoundExprsCyclic: the cyclic reduction strides by P from the
// first owned iteration.
func TestBoundExprsCyclic(t *testing.T) {
	c := &Constraint{Array: "X", Dist: decomp.MustDist(decomp.NewDecomp(decomp.Cyclic), []int{100}, 4)}
	lo, hi, step, ok := BoundExprs(c, &ast.Do{Var: "i", Lo: ast.Int(1), Hi: ast.Int(100)}, nil)
	if !ok {
		t.Fatal("cyclic reduction failed")
	}
	if mustInt(t, step, nil) != 4 {
		t.Errorf("step = %v", step)
	}
	for p := 0; p < 4; p++ {
		env := ast.MapEnv{MyP: p}
		if l := mustInt(t, lo, env); l != p+1 {
			t.Errorf("p%d lo = %d, want %d", p, l, p+1)
		}
	}
	if mustInt(t, hi, nil) != 100 {
		t.Errorf("hi = %v", hi)
	}
}

// TestBoundExprsCyclicSymbolicLo: dgefa's do j = k+1, n works through
// the first$ intrinsic.
func TestBoundExprsCyclicSymbolicLo(t *testing.T) {
	c := &Constraint{Array: "a", Dist: decomp.MustDist(decomp.NewDecomp(decomp.Collapsed, decomp.Cyclic), []int{64, 64}, 4)}
	lo, _, step, ok := BoundExprs(c, &ast.Do{Var: "j", Lo: ast.Add(ast.Id("k"), ast.Int(1)), Hi: ast.Id("n")}, nil)
	if !ok {
		t.Fatal("symbolic cyclic reduction failed")
	}
	if mustInt(t, step, nil) != 4 {
		t.Errorf("step = %v", step)
	}
	// first$(my$p+1, k+1, 4): smallest x >= k+1 with x ≡ my$p+1 (mod 4)
	fc, okF := lo.(*ast.FuncCall)
	if !okF || fc.Name != "first$" {
		t.Fatalf("lo = %s, want first$ call", lo)
	}
}

// TestBoundExprsRejectsStride: a loop that does not step by one, by a
// step known only under the PARAMETER constants or not at all, or whose
// body may RETURN falls back; a PARAMETER step of 1 is reduced.
func TestBoundExprsRejectsStride(t *testing.T) {
	c := &Constraint{Array: "X", Dist: blockDist(100, 4)}
	env := ast.MapEnv{"ns": 1, "two": 2}
	for _, tc := range []struct {
		loop *ast.Do
		want bool
	}{
		{&ast.Do{Var: "i", Lo: ast.Int(2), Hi: ast.Int(99), Step: ast.Int(2)}, false},
		{&ast.Do{Var: "i", Lo: ast.Int(99), Hi: ast.Int(2), Step: ast.Int(-1)}, false},
		{&ast.Do{Var: "i", Lo: ast.Int(2), Hi: ast.Int(99), Step: ast.Id("two")}, false},
		{&ast.Do{Var: "i", Lo: ast.Int(2), Hi: ast.Int(99), Step: ast.Id("k")}, false},
		{&ast.Do{Var: "i", Lo: ast.Int(2), Hi: ast.Int(99), Body: []ast.Stmt{&ast.If{Cond: ast.Id("k"), Then: []ast.Stmt{&ast.Return{}}}}}, false},
		{&ast.Do{Var: "i", Lo: ast.Int(2), Hi: ast.Int(99), Step: ast.Id("ns")}, true},
	} {
		if _, _, step, ok := BoundExprs(c, tc.loop, env); ok != tc.want || ok && step != nil {
			t.Errorf("do %s = %v, %v, %v: reduced %v (step %v), want %v", tc.loop.Var, tc.loop.Lo, tc.loop.Hi, tc.loop.Step, ok, step, tc.want)
		}
	}
}

// TestGuardAndOwnerExprs: the guard selects exactly the owner.
func TestGuardAndOwnerExprs(t *testing.T) {
	dists := []*decomp.Dist{
		blockDist(100, 4),
		decomp.MustDist(decomp.NewDecomp(decomp.Cyclic), []int{100}, 4),
		decomp.MustDist(decomp.NewDecomp(decomp.BlockCyclic(5)), []int{100}, 4),
	}
	for _, dist := range dists {
		owner := OwnerExpr(dist, ast.Id("i"))
		for i := 1; i <= 100; i++ {
			env := ast.MapEnv{"i": i}
			got, ok := ast.EvalInt(owner, env)
			if !ok {
				t.Fatalf("%s: owner expr not evaluable", dist.Key())
			}
			if want := dist.OwnerIndex(i); got != want {
				t.Errorf("%s: owner(%d) = %d, want %d", dist.Key(), i, got, want)
			}
		}
	}
}

// TestAnalyzeSub classifies subscripts.
func TestAnalyzeSub(t *testing.T) {
	cases := []struct {
		expr ast.Expr
		want SubPattern
	}{
		{ast.Id("i"), SubPattern{Var: "i", Coef: 1, OK: true}},
		{ast.Add(ast.Id("i"), ast.Int(5)), SubPattern{Var: "i", Coef: 1, Off: 5, OK: true}},
		{ast.Int(7), SubPattern{Off: 7, OK: true}},
		{ast.Mul(ast.Int(2), ast.Id("i")), SubPattern{Var: "i", Coef: 2, OK: true}},
	}
	for _, c := range cases {
		got := AnalyzeSub(c.expr, nil)
		if got != c.want {
			t.Errorf("AnalyzeSub(%s) = %+v, want %+v", c.expr, got, c.want)
		}
	}
}

// TestReductionRecognition: s = s + X(i) yields a reduction item with a
// reduced loop.
func TestReductionRecognition(t *testing.T) {
	proc, node := buildNode(t, `
      SUBROUTINE S(X)
      REAL X(100)
      s = 0.0
      do i = 1,100
        s = s + X(i)
      enddo
      X(1) = s
      END
`, "S")
	dist := blockDist(100, 4)
	plan := Compute(proc, ast.NewIndex(proc), node, func(string, ast.Stmt) (*decomp.Dist, bool) { return dist, true }, noDelayed, nil, nil, nil)
	var red *Item
	for _, it := range plan.Items {
		if it.Red != nil {
			red = it
		}
	}
	if red == nil {
		t.Fatal("reduction not recognized")
	}
	if red.Red.Var != "s" || red.Red.Op != "+" {
		t.Errorf("reduction = %+v", red.Red)
	}
	if red.Loop == nil {
		t.Error("reduction loop not set")
	}
	if _, ok := plan.LoopBounds[red.Loop]; !ok {
		t.Error("reduction loop not bounds-reduced")
	}
}

// TestReductionVariants: all accepted syntactic shapes.
func TestReductionVariants(t *testing.T) {
	shapes := []string{
		"s = s + X(i)",
		"s = X(i) + s",
		"s = s - X(i)",
		"s = MAX(s, X(i))",
		"s = MIN(X(i), s)",
	}
	for _, shape := range shapes {
		src := `
      SUBROUTINE S(X)
      REAL X(100)
      do i = 1,100
        ` + shape + `
      enddo
      X(1) = s
      END
`
		proc, node := buildNode(t, src, "S")
		dist := blockDist(100, 4)
		plan := Compute(proc, ast.NewIndex(proc), node, func(string, ast.Stmt) (*decomp.Dist, bool) { return dist, true }, noDelayed, nil, nil, nil)
		found := false
		for _, it := range plan.Items {
			if it.Red != nil {
				found = true
			}
		}
		if !found {
			t.Errorf("shape %q not recognized", shape)
		}
	}
}

// TestReductionRejections: shapes that must NOT be treated as
// reductions.
func TestReductionRejections(t *testing.T) {
	shapes := []string{
		"s = s * X(i)",         // not an accepted operator
		"s = X(i) - s",         // s negated each step
		"s = s + 1.0",          // nothing distributed
		"s = MAX(s, s + X(i))", // s inside the term
	}
	for _, shape := range shapes {
		src := `
      SUBROUTINE S(X)
      REAL X(100)
      do i = 1,100
        ` + shape + `
      enddo
      X(1) = s
      END
`
		proc, node := buildNode(t, src, "S")
		dist := blockDist(100, 4)
		plan := Compute(proc, ast.NewIndex(proc), node, func(string, ast.Stmt) (*decomp.Dist, bool) { return dist, true }, noDelayed, nil, nil, nil)
		for _, it := range plan.Items {
			if it.Red != nil {
				t.Errorf("shape %q wrongly recognized", shape)
			}
		}
	}
}

// TestReductionDemotedByOtherWork: a conflicting statement in the loop
// reverts the reduction to replicated execution (not a guard).
func TestReductionDemotedByOtherWork(t *testing.T) {
	proc, node := buildNode(t, `
      SUBROUTINE S(X, Y)
      REAL X(100), Y(100)
      do i = 1,100
        s = s + X(i)
        Y(i+1) = s
      enddo
      END
`, "S")
	dist := blockDist(100, 4)
	plan := Compute(proc, ast.NewIndex(proc), node, func(string, ast.Stmt) (*decomp.Dist, bool) { return dist, true }, noDelayed, nil, nil, nil)
	for _, it := range plan.Items {
		if it.Red != nil {
			t.Errorf("reduction must be demoted (accumulator escapes): %+v", it)
		}
		if _, isScalar := it.Stmt.Lhs.(*ast.Ident); isScalar && (it.Guard || it.C != nil) {
			t.Errorf("demoted reduction must be replicated, not guarded: %+v", it)
		}
	}
}

// TestGuardExprSelectsOwner: the generated guard is true on exactly the
// owning processor.
func TestGuardExprSelectsOwner(t *testing.T) {
	c := &Constraint{Array: "X", Dist: blockDist(100, 4), Offset: 3}
	g := GuardExpr(c, ast.Id("i"))
	for i := 1; i <= 97; i++ {
		owner := c.Dist.OwnerIndex(i + 3)
		for p := 0; p < 4; p++ {
			env := ast.MapEnv{"i": i, MyP: p}
			v, ok := ast.EvalInt(g, env)
			if !ok {
				t.Fatalf("guard not evaluable: %s", g)
			}
			want := 0
			if p == owner {
				want = 1
			}
			if v != want {
				t.Errorf("i=%d p=%d guard=%d want %d", i, p, v, want)
			}
		}
	}
}

// TestConflictDemotesEveryParty: when two constraints disagree on the
// loop or the formal that is to instantiate them, every item and call
// registered there — those seen before the disagreement as well as
// after — falls back to a guard with the conflict as its reason, and
// nothing is reduced or exported.
func TestConflictDemotesEveryParty(t *testing.T) {
	block := blockDist(100, 4)
	cyclic := decomp.MustDist(decomp.NewDecomp(decomp.Cyclic), []int{100}, 4)
	byName := func(name string, _ ast.Stmt) (*decomp.Dist, bool) {
		if name == "Y" {
			return cyclic, true
		}
		return block, true
	}

	// the disagreeing statement comes last; a call constraint is third
	proc, node := buildNode(t, `
      SUBROUTINE S(X,Y,Z,W)
      REAL X(100), Y(100), Z(100), W(100)
      do i = 1,100
        X(i) = 1.0
        Z(i) = 2.0
        call F(W,i)
        Y(i) = 3.0
      enddo
      END
      SUBROUTINE F(W,i)
      REAL W(100)
      W(i) = 0.0
      END
`, "S")
	delayed := func(string) map[string]*Constraint {
		return map[string]*Constraint{"i": {Array: "W", Dist: block}}
	}
	plan := Compute(proc, ast.NewIndex(proc), node, byName, delayed, nil, nil, nil)
	if len(plan.LoopBounds) != 0 || len(plan.Items) != 3 || len(plan.CallCons) != 1 {
		t.Fatalf("LoopBounds = %v, %d items, %d call constraints", plan.LoopBounds, len(plan.Items), len(plan.CallCons))
	}
	for _, it := range plan.Items {
		if !it.Guard || it.Loop != nil || it.Why != WhyLoopConflict {
			t.Errorf("item %s = %+v, want a guard for the loop conflict", it.Stmt.Lhs, it)
		}
	}
	if cc := plan.CallCons[0]; !cc.Guard || cc.Loop != nil || cc.Why != WhyLoopConflict {
		t.Errorf("call constraint = %+v, want a guard for the loop conflict", cc)
	}

	// the same on a formal: nothing is delayed to the callers
	proc, node = buildNode(t, `
      SUBROUTINE S(X,Y,Z,i)
      REAL X(100), Y(100), Z(100)
      X(i) = 1.0
      Z(i) = 2.0
      Y(i) = 3.0
      END
`, "S")
	plan = Compute(proc, ast.NewIndex(proc), node, byName, noDelayed, nil, nil, nil)
	if len(plan.Delayed) != 0 {
		t.Errorf("Delayed = %v, want none", plan.Delayed)
	}
	for _, it := range plan.Items {
		if !it.Guard || it.DelayVar != "" || it.Why != WhyDelayConflict {
			t.Errorf("item %s = %+v, want a guard for the delay conflict", it.Stmt.Lhs, it)
		}
	}
}
