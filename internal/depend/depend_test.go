package depend

import (
	"fmt"
	"testing"

	"fortd/internal/ast"
	"fortd/internal/parser"
)

// depList is what the dependence tests read: the references of one
// procedure and every dependence among them, in the order the pair
// loop emits them.
type depList struct {
	Refs []*Ref
	Deps []Dep
}

// analyzeDeps runs Analyze's pair loop with an emitter that collects
// the dependence list instead of raising sink levels.
func analyzeDeps(proc *ast.Procedure, env ast.Env) *depList {
	l := &depList{Refs: CollectRefs(proc, env)}
	visitPairs(l.Refs, l.add)
	return l
}

func (l *depList) add(d Dep) { l.Deps = append(l.Deps, d) }

// pinOf is the sink-level rule for one true dependence: the level that
// carries it, or for a loop-independent one the depth of the loops its
// two references share.
func pinOf(d Dep) int {
	if d.Level > 0 {
		return d.Level
	}
	n := 0
	for n < len(d.Src.Nest) && n < len(d.Snk.Nest) && d.Src.Nest[n] == d.Snk.Nest[n] {
		n++
	}
	return n
}

// CheckSinkLevels holds Analyze's emitter to the collector on one
// procedure: each reference's sink level is the deepest pin among the
// True dependences into it that the pair loop emits (-1: none), and
// SameIter says that no dependence of that pin is carried. It returns
// how many references have a carried true dependence into them.
func CheckSinkLevels(proc *ast.Procedure, env ast.Env) (int, error) {
	got, list := Analyze(proc, env), analyzeDeps(proc, env)
	deepest, sameIter, carried := map[*Ref]int{}, map[*Ref]bool{}, 0
	for _, d := range list.Deps {
		if d.Kind != True {
			continue
		}
		switch l, seen := deepest[d.Snk]; {
		case !seen || pinOf(d) > l:
			deepest[d.Snk], sameIter[d.Snk] = pinOf(d), d.Level == 0
		case pinOf(d) == l && d.Level != 0:
			sameIter[d.Snk] = false
		}
	}
	for i, r := range list.Refs {
		want, seen := deepest[r]
		if !seen {
			want = -1
		}
		if l := got[i].SinkLevel; l != want {
			return 0, fmt.Errorf("%s: sink level of %s is %d, deepest true dependence into it %d", proc.Name, r.Expr, l, want)
		}
		if got[i].SameIter != sameIter[r] {
			return 0, fmt.Errorf("%s: %s pinned by loop-independent dependences only: %v, want %v", proc.Name, r.Expr, got[i].SameIter, sameIter[r])
		}
		if want > 0 {
			carried++
		}
	}
	return carried, nil
}

func mustParseProc(t *testing.T, src string) *ast.Procedure {
	t.Helper()
	u, err := parser.ParseProcedure(src)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// TestFigure1NoTrueDep: in X(i) = F(X(i+5)) the pair is an anti
// dependence, so the paper vectorizes the message outside the i loop
// ("The lack of true dependences on S1 allows this to be vectorized
// outside the i loop").
func TestFigure1NoTrueDep(t *testing.T) {
	u := mustParseProc(t, `
      SUBROUTINE F1(X)
      REAL X(100)
      do i = 1,95
        X(i) = F(X(i+5))
      enddo
      END
`)
	info := analyzeDeps(u, nil)
	if len(info.Deps) == 0 {
		t.Fatal("no dependences found")
	}
	for _, d := range info.Deps {
		if d.Kind == True {
			t.Errorf("unexpected true dependence %v at level %d", d, d.Level)
		}
	}
	// the anti dependence is carried by the i loop with distance 5
	found := false
	for _, d := range info.Deps {
		if d.Kind == Anti && d.Level == 1 && d.Known && d.Distance == 5 {
			found = true
		}
	}
	if !found {
		t.Errorf("missing carried anti dependence: %+v", info.Deps)
	}
}

// TestRecurrenceTrueDep: X(i) = X(i-1) carries a true dependence at the
// loop, forcing communication inside it.
func TestRecurrenceTrueDep(t *testing.T) {
	u := mustParseProc(t, `
      SUBROUTINE S(X)
      REAL X(100)
      do i = 2,100
        X(i) = X(i-1)
      enddo
      END
`)
	info := analyzeDeps(u, nil)
	var rhs *ast.ArrayRef
	loop := u.Body[0].(*ast.Do)
	rhs = loop.Body[0].(*ast.Assign).Rhs.(*ast.ArrayRef)
	if lvl := sinkLevel(Analyze(u, nil), rhs); lvl != 1 {
		t.Errorf("SinkLevel = %d, want 1", lvl)
	}
	found := false
	for _, d := range info.Deps {
		if d.Kind == True && d.Level == 1 && d.Distance == 1 && d.Known {
			found = true
		}
	}
	if !found {
		t.Errorf("deps = %+v", info.Deps)
	}
}

func TestLoopIndependentDep(t *testing.T) {
	u := mustParseProc(t, `
      SUBROUTINE S(X,Y)
      REAL X(100), Y(100)
      do i = 1,100
        X(i) = Y(i)
        Y(i) = X(i)
      enddo
      END
`)
	info := analyzeDeps(u, nil)
	// X(i) written then read in the same iteration: loop-independent true dep
	found := false
	for _, d := range info.Deps {
		if d.Kind == True && d.Src.Array == "X" && d.Level == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("missing loop-independent true dep: %+v", info.Deps)
	}
}

func TestSameStatementAnti(t *testing.T) {
	u := mustParseProc(t, `
      SUBROUTINE S(X)
      REAL X(100)
      do i = 1,100
        X(i) = X(i) + 1.0
      enddo
      END
`)
	info := analyzeDeps(u, nil)
	for _, d := range info.Deps {
		if d.Kind == True {
			t.Errorf("X(i) = X(i)+1 must not produce a true dep (read executes first): %+v", d)
		}
	}
}

func TestZIVIndependent(t *testing.T) {
	u := mustParseProc(t, `
      SUBROUTINE S(X)
      REAL X(100)
      do i = 1,100
        X(1) = X(2)
      enddo
      END
`)
	info := analyzeDeps(u, nil)
	for _, d := range info.Deps {
		if d.Src.Array == "X" && d.Kind == True {
			t.Errorf("X(1)/X(2) are independent: %+v", d)
		}
	}
}

func TestGCDIndependent(t *testing.T) {
	u := mustParseProc(t, `
      SUBROUTINE S(X)
      REAL X(100)
      do i = 1,50
        X(2*i) = X(2*i+1)
      enddo
      END
`)
	info := analyzeDeps(u, nil)
	if len(info.Deps) != 0 {
		t.Errorf("even/odd accesses are independent: %+v", info.Deps)
	}
}

func TestTwoDimDistance(t *testing.T) {
	// Figure 4 kernel: Z(k,i) = F(Z(k+5,i)) — anti at level k, distance 5
	u := mustParseProc(t, `
      SUBROUTINE F2(Z,i)
      REAL Z(100,100)
      do k = 1,100
        Z(k,i) = F(Z(k+5,i))
      enddo
      END
`)
	info := analyzeDeps(u, nil)
	found := false
	for _, d := range info.Deps {
		if d.Kind == Anti && d.Level == 1 && d.Distance == 5 {
			found = true
		}
		if d.Kind == True {
			t.Errorf("unexpected true dep: %+v", d)
		}
	}
	if !found {
		t.Errorf("deps = %+v", info.Deps)
	}
}

func TestNestedLoopCarrier(t *testing.T) {
	u := mustParseProc(t, `
      SUBROUTINE S(A)
      REAL A(100,100)
      do i = 2,100
        do j = 1,100
          A(i,j) = A(i-1,j)
        enddo
      enddo
      END
`)
	info := analyzeDeps(u, nil)
	found := false
	for _, d := range info.Deps {
		if d.Kind == True && d.Level == 1 && d.Distance == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("outer-carried true dep missing: %+v", info.Deps)
	}
	// inner loop does not carry it
	for _, d := range info.Deps {
		if d.Kind == True && d.Level == 2 {
			t.Errorf("dep wrongly carried at level 2: %+v", d)
		}
	}
}

func TestLinearSubscript(t *testing.T) {
	u := mustParseProc(t, `
      SUBROUTINE S(X,n)
      REAL X(100)
      X(2*i+3) = 0.0
      X(i) = 0.0
      X(7) = 0.0
      X(i*j) = 0.0
      END
`)
	get := func(k int) ast.Expr {
		return u.Body[k].(*ast.Assign).Lhs.(*ast.ArrayRef).Subs[0]
	}
	v, c, k, ok := LinearSubscript(get(0), nil)
	if !ok || v != "i" || c != 2 || k != 3 {
		t.Errorf("2*i+3 → %s,%d,%d,%v", v, c, k, ok)
	}
	v, c, k, ok = LinearSubscript(get(1), nil)
	if !ok || v != "i" || c != 1 || k != 0 {
		t.Errorf("i → %s,%d,%d,%v", v, c, k, ok)
	}
	v, c, k, ok = LinearSubscript(get(2), nil)
	if !ok || c != 0 || k != 7 {
		t.Errorf("7 → %s,%d,%d,%v", v, c, k, ok)
	}
	if _, _, _, ok = LinearSubscript(get(3), nil); ok {
		t.Error("i*j should not be single-index affine")
	}
}

func TestCollectRefsNest(t *testing.T) {
	u := mustParseProc(t, `
      SUBROUTINE S(A)
      REAL A(10,10)
      do i = 1,10
        do j = 1,10
          A(i,j) = 1.0
        enddo
      enddo
      END
`)
	refs := CollectRefs(u, nil)
	if len(refs) != 1 {
		t.Fatalf("refs = %d", len(refs))
	}
	if !refs[0].IsWrite || len(refs[0].Nest) != 2 {
		t.Errorf("ref = %+v", refs[0])
	}
	if refs[0].Nest[0].Var != "i" || refs[0].Nest[1].Var != "j" {
		t.Errorf("nest = %v,%v", refs[0].Nest[0].Var, refs[0].Nest[1].Var)
	}
}

// TestWeakZeroRangeDisproof: dgefa's daxpy pattern — write a(i,j) with
// i = k+1..n against read a(k,j) is independent because the only
// dependence solution (i = k) lies below the loop's lower bound.
func TestWeakZeroRangeDisproof(t *testing.T) {
	u := mustParseProc(t, `
      SUBROUTINE daxpy(a, n, k, j)
      REAL a(64,64)
      do i = k+1, n
        a(i,j) = a(i,j) - a(i,k) * a(k,j)
      enddo
      END
`)
	info := analyzeDeps(u, nil)
	for _, d := range info.Deps {
		if d.Kind == True && d.Level == 1 {
			t.Errorf("a(k,j) wrongly made loop-carried: %+v", d)
		}
	}
}

// TestWeakZeroAboveRange: symmetric disproof via the upper bound.
func TestWeakZeroAboveRange(t *testing.T) {
	u := mustParseProc(t, `
      SUBROUTINE s(a, n)
      REAL a(64)
      do i = 1, n-1
        a(i) = a(i) + a(n)
      enddo
      END
`)
	info := analyzeDeps(u, nil)
	for _, d := range info.Deps {
		if d.Kind == True && d.Level == 1 {
			t.Errorf("a(n) is outside [1,n-1], no carried dep: %+v", d)
		}
	}
}

// TestSameNamedLoopsDoNotCancel: two separate "do i" loops are distinct
// iteration spaces — the dependence between them is carried by the
// enclosing time loop, not erased by name collision.
func TestSameNamedLoopsDoNotCancel(t *testing.T) {
	u := mustParseProc(t, `
      SUBROUTINE s(a, b)
      REAL a(64), b(64)
      do t = 1, 10
        do i = 2, 63
          b(i) = a(i+1)
        enddo
        do i = 2, 63
          a(i) = b(i)
        enddo
      enddo
      END
`)
	info := analyzeDeps(u, nil)
	// a written in loop 2 of iteration t, read in loop 1 of t+1: a true
	// dependence carried at the t loop must exist
	found := false
	for _, d := range info.Deps {
		if d.Kind == True && d.Level == 1 && d.Src.Array == "a" && d.Src.IsWrite {
			found = true
		}
	}
	if !found {
		t.Errorf("missing t-carried true dep: %+v", info.Deps)
	}
}

// TestUnknownOuterDoesNotMaskInner: the ADI column sweep — time loop
// unconstrained, but the i distance is exactly 1 and must be reported
// at the i level too.
func TestUnknownOuterDoesNotMaskInner(t *testing.T) {
	u := mustParseProc(t, `
      SUBROUTINE s(a)
      REAL a(8,8)
      do t = 1, 2
        do j = 1, 8
          do i = 2, 8
            a(i,j) = a(i,j) + 0.5 * a(i-1,j)
          enddo
        enddo
      enddo
      END
`)
	info := Analyze(u, nil)
	read := findRead(t, u, info)
	if lvl := sinkLevel(info, read); lvl != 3 {
		t.Errorf("SinkLevel = %d, want 3 (the i loop)", lvl)
	}
}

// sinkLevel is the sink level of the reference expr.
func sinkLevel(refs []*Ref, expr *ast.ArrayRef) int {
	for _, r := range refs {
		if r.Expr == expr {
			return r.SinkLevel
		}
	}
	return -1
}

func findRead(t *testing.T, u *ast.Procedure, refs []*Ref) *ast.ArrayRef {
	t.Helper()
	for _, r := range refs {
		if !r.IsWrite && len(r.Expr.Subs) == 2 {
			if s, ok := r.Expr.Subs[0].(*ast.Binary); ok && s.Op == ast.OpSub {
				return r.Expr
			}
		}
	}
	t.Fatal("no a(i-1,j) read found")
	return nil
}

// TestNonAffineConservative: x(x(i)) style indices assume dependence.
func TestNonAffineConservative(t *testing.T) {
	u := mustParseProc(t, `
      SUBROUTINE s(x, idx)
      REAL x(100)
      INTEGER idx(100)
      do i = 1, 100
        x(idx(i)) = x(i) + 1.0
      enddo
      END
`)
	info := analyzeDeps(u, nil)
	carried := false
	for _, d := range info.Deps {
		if d.Src.Array == "x" && d.Level == 1 {
			carried = true
		}
	}
	if !carried {
		t.Errorf("indirect store must be conservatively carried: %+v", info.Deps)
	}
}
