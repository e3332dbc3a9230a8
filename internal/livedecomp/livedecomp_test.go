package livedecomp

import (
	"testing"

	"fortd/internal/acg"
	"fortd/internal/ast"
	"fortd/internal/comm"
	"fortd/internal/decomp"
	"fortd/internal/parser"
	"fortd/internal/rsd"
)

// fig15Src is the paper's Figure 15 program: X is block-distributed in
// P1, cyclically redistributed inside F1 (called twice per iteration of
// the k loop), and fully overwritten by F2 after the loop.
const fig15Src = `
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
        y = X(i)
      enddo
      END
      SUBROUTINE F2(X)
      REAL X(100)
      do i = 1,100
S3      X(i) = 1.0
      enddo
      END
`

// buildFig15 compiles the callee summaries bottom-up (reverse
// topological order) and returns what Analyze needs for P1.
func buildFig15(t *testing.T, level Level) (*Placement, *Summary, map[string]*Summary, *ast.Program) {
	t.Helper()
	prog, err := parser.Parse(fig15Src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := acg.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	sections := comm.ComputeSections(g, nil, localSections)
	killTest := func(site *acg.CallSite, callerArray string) bool {
		return KillsArray(site, callerArray, sections)
	}
	summaries := map[string]*Summary{}
	var mainPlace *Placement
	var mainSum *Summary
	for _, n := range g.ReverseTopoOrder() {
		entry := map[string]decomp.Decomp{}
		if !n.Proc.IsMain {
			// both F1 and F2 inherit BLOCK from P1
			entry["X"] = decomp.NewDecomp(decomp.Block)
		}
		place, sum := Analyze(n.Proc, ast.NewIndex(n.Proc), n, entry, summaries, killTest, level, nil)
		summaries[n.Name()] = sum
		if n.Proc.IsMain {
			mainPlace, mainSum = place, sum
		}
	}
	return mainPlace, mainSum, summaries, prog
}

// TestFigure15Summaries checks the interprocedural sets of §6.1:
// DecompUse(F1)=∅, DecompKill(F1)={X}, DecompBefore(F1)={⟨cyclic,X⟩},
// DecompAfter(F1)={⟨block,X⟩}; DecompUse(F2)={X} and the rest empty.
func TestFigure15Summaries(t *testing.T) {
	_, _, sums, _ := buildFig15(t, OptNone)
	f1 := sums["F1"]
	if len(f1.Use) != 0 {
		t.Errorf("DecompUse(F1) = %v, want empty", f1.Use)
	}
	if !f1.Kill["X"] {
		t.Errorf("DecompKill(F1) = %v, want {X}", f1.Kill)
	}
	if d, ok := f1.Before["X"]; !ok || d.Key() != "(CYCLIC)" {
		t.Errorf("DecompBefore(F1) = %v", f1.Before)
	}
	if d, ok := f1.After["X"]; !ok || d.Key() != "(BLOCK)" {
		t.Errorf("DecompAfter(F1) = %v", f1.After)
	}
	f2 := sums["F2"]
	if !f2.Use["X"] {
		t.Errorf("DecompUse(F2) = %v, want {X}", f2.Use)
	}
	if f2.Kill["X"] || len(f2.Before) != 0 || len(f2.After) != 0 {
		t.Errorf("F2 summary = %+v", f2)
	}
}

// runtimeRemaps counts how many remap operations execute at run time,
// assuming the k loop runs T iterations: ops anchored to statements
// inside the loop count T times, loop-hoisted and post-loop ops once.
func runtimeRemaps(p *Placement, prog *ast.Program, T int, physicalOnly bool) int {
	// locate the loop statement set of P1's k loop
	inLoop := map[ast.Stmt]bool{}
	main := prog.Main()
	for _, s := range main.Body {
		if do, ok := s.(*ast.Do); ok && do.Var == "k" {
			ast.WalkStmts(do.Body, func(st ast.Stmt) bool {
				inLoop[st] = true
				return true
			})
		}
	}
	count := func(ops []*Op, times int) int {
		n := 0
		for _, op := range ops {
			if physicalOnly && op.InPlace {
				continue
			}
			n += times
		}
		return n
	}
	total := 0
	for s, ops := range p.BeforeStmt {
		times := 1
		if inLoop[s] {
			times = T
		}
		total += count(ops, times)
	}
	for s, ops := range p.AfterStmt {
		times := 1
		if inLoop[s] {
			times = T
		}
		total += count(ops, times)
	}
	for _, ops := range p.BeforeLoop {
		total += count(ops, 1)
	}
	for _, ops := range p.AfterLoop {
		total += count(ops, 1)
	}
	return total
}

// TestFigure16Ladder reproduces the remap-count ladder of Figure 16:
// 4T (no optimization) → 2T (live decompositions) → 2 (loop-invariant
// hoisting) → 1 physical remap (array kills), for T loop iterations.
func TestFigure16Ladder(t *testing.T) {
	const T = 10
	cases := []struct {
		level    Level
		want     int
		physOnly bool
	}{
		{OptNone, 4 * T, false},
		{OptLive, 2 * T, false},
		{OptHoist, 2, false},
		{OptKills, 1, true},
	}
	for _, c := range cases {
		place, _, _, prog := buildFig15(t, c.level)
		got := runtimeRemaps(place, prog, T, c.physOnly)
		if got != c.want {
			t.Errorf("level %s: %d runtime remaps, want %d", c.level, got, c.want)
		}
	}
}

// TestKillsArrayDetection: F2 fully overwrites X without reading it;
// F1 reads it.
func TestKillsArrayDetection(t *testing.T) {
	prog, err := parser.Parse(fig15Src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := acg.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	sections := comm.ComputeSections(g, nil, localSections)
	var f1Site, f2Site *acg.CallSite
	for _, s := range g.Nodes["P1"].Calls {
		switch s.Callee.Name() {
		case "F1":
			f1Site = s
		case "F2":
			f2Site = s
		}
	}
	if !KillsArray(f2Site, "X", sections) {
		t.Error("F2 must kill X")
	}
	if KillsArray(f1Site, "X", sections) {
		t.Error("F1 must not kill X (it reads X)")
	}
}

// TestNoDynamicDecompNoRemaps: a static program needs no remap calls.
func TestNoDynamicDecompNoRemaps(t *testing.T) {
	src := `
      PROGRAM P
      REAL X(100)
      DISTRIBUTE X(BLOCK)
      do i = 1,100
        X(i) = 0.0
      enddo
      call S(X)
      END
      SUBROUTINE S(X)
      REAL X(100)
      do i = 1,100
        X(i) = X(i) + 1.0
      enddo
      END
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := acg.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	summaries := map[string]*Summary{}
	for _, n := range g.ReverseTopoOrder() {
		entry := map[string]decomp.Decomp{}
		if !n.Proc.IsMain {
			entry["X"] = decomp.NewDecomp(decomp.Block)
		}
		place, sum := Analyze(n.Proc, ast.NewIndex(n.Proc), n, entry, summaries, nil, OptKills, nil)
		summaries[n.Name()] = sum
		if place.Count() != 0 {
			t.Errorf("%s: %d remaps in static program", n.Name(), place.Count())
		}
	}
	if !summaries["S"].Use["X"] {
		t.Errorf("DecompUse(S) = %v", summaries["S"].Use)
	}
	if len(summaries["S"].Kill) != 0 {
		t.Errorf("DecompKill(S) = %v", summaries["S"].Kill)
	}
}

// TestAlignBeforeDistribute: an ALIGN with a DECOMPOSITION that no
// DISTRIBUTE has reached yet gives the array no layout, so a formal
// whose DISTRIBUTE then restores its entry layout is neither killed nor
// remapped.
func TestAlignBeforeDistribute(t *testing.T) {
	src := `
      PROGRAM P
      REAL X(100)
      DISTRIBUTE X(BLOCK)
      call S(X)
      END
      SUBROUTINE S(X)
      REAL X(100)
      do i = 1,100
        X(i) = X(i) + 1.0
      enddo
      DECOMPOSITION D(100)
      ALIGN X(i) WITH D(i)
      DISTRIBUTE D(BLOCK)
      do i = 1,100
        X(i) = X(i) + 1.0
      enddo
      END
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := acg.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	n := g.Nodes["S"]
	entry := map[string]decomp.Decomp{"X": decomp.NewDecomp(decomp.Block)}
	place, sum := Analyze(n.Proc, ast.NewIndex(n.Proc), n, entry, map[string]*Summary{}, nil, OptKills, nil)
	if len(sum.Kill) != 0 || place.Count() != 0 {
		t.Errorf("DecompKill(S) = %v, %d remaps; want none", sum.Kill, place.Count())
	}
	if !sum.Use["X"] {
		t.Errorf("DecompUse(S) = %v, want {X}", sum.Use)
	}
}

// TestConditionalRemapNotOptimized: a remap under IF stays where its
// DISTRIBUTE stood, and moves data: the loop after the IF sees X BLOCK
// on one edge of the IF and CYCLIC on the other, and it reads X.
func TestConditionalRemapNotOptimized(t *testing.T) {
	src := `
      PROGRAM P
      REAL X(100)
      DISTRIBUTE X(BLOCK)
      do i = 1,100
        X(i) = 0.0
      enddo
      if (n .gt. 5) then
        DISTRIBUTE X(CYCLIC)
      endif
      do i = 1,100
        X(i) = X(i) + 1.0
      enddo
      END
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := acg.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	n := g.Nodes["P"]
	place, _ := Analyze(n.Proc, ast.NewIndex(n.Proc), n, nil, map[string]*Summary{}, nil, OptKills, nil)
	if place.Count() != 1 {
		t.Errorf("conditional remap count = %d, want 1", place.Count())
	}
	found := 0 // the remap goes where the DISTRIBUTE stood
	for _, ops := range place.BeforeStmt {
		for _, op := range ops {
			if found++; op.InPlace {
				t.Error("conditional remap must not be optimized in place")
			}
		}
	}
	if found != 1 {
		t.Errorf("%d remaps placed before a statement, want the one", found)
	}
}

// KillsArray is exercised above; keep the rsd import honest.
var _ = rsd.Range

// TestNestedLoopHoisting: remaps invariant across a two-deep nest hoist
// out of the inner loop first, then the outer one.
func TestNestedLoopHoisting(t *testing.T) {
	src := `
      PROGRAM P
      REAL X(100)
      PARAMETER (n$proc = 4)
      DISTRIBUTE X(BLOCK)
      do t = 1,4
        do k = 1,5
          call F1(X)
        enddo
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
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := acg.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	sections := comm.ComputeSections(g, nil, localSections)
	killTest := func(site *acg.CallSite, arr string) bool {
		return KillsArray(site, arr, sections)
	}
	summaries := map[string]*Summary{}
	var place *Placement
	for _, n := range g.ReverseTopoOrder() {
		entry := map[string]decomp.Decomp{}
		if !n.Proc.IsMain {
			entry["X"] = decomp.NewDecomp(decomp.Block)
		}
		pl, sum := Analyze(n.Proc, ast.NewIndex(n.Proc), n, entry, summaries, killTest, OptKills, nil)
		summaries[n.Name()] = sum
		if n.Proc.IsMain {
			place = pl
		}
	}
	// fully hoisted: one to-cyclic before the loops, one in-place
	// restore after — nothing anchored to statements inside the nest
	if len(place.BeforeStmt) != 0 || len(place.AfterStmt) != 0 {
		t.Errorf("remaps left inside the nest: before=%v after=%v",
			place.BeforeStmt, place.AfterStmt)
	}
	total := place.Count()
	if total != 2 {
		t.Errorf("total remaps = %d, want 2 (hoisted pair)", total)
	}
}

// TestSummaryPassesThroughWrapper: a wrapper procedure that only calls
// F1 exposes F1's remapping needs to its own callers.
func TestSummaryPassesThroughWrapper(t *testing.T) {
	src := `
      PROGRAM P
      REAL X(100)
      PARAMETER (n$proc = 4)
      DISTRIBUTE X(BLOCK)
      call WRAP(X)
      do i = 1,100
        y = y + X(i)
      enddo
      END
      SUBROUTINE WRAP(X)
      REAL X(100)
      call F1(X)
      END
      SUBROUTINE F1(X)
      REAL X(100)
      DISTRIBUTE X(CYCLIC)
      do i = 1,100
        y = y + X(i)
      enddo
      END
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := acg.Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	summaries := map[string]*Summary{}
	for _, n := range g.ReverseTopoOrder() {
		entry := map[string]decomp.Decomp{}
		if !n.Proc.IsMain {
			entry["X"] = decomp.NewDecomp(decomp.Block)
		}
		_, sum := Analyze(n.Proc, ast.NewIndex(n.Proc), n, entry, summaries, nil, OptKills, nil)
		summaries[n.Name()] = sum
	}
	w := summaries["WRAP"]
	if d, ok := w.Before["X"]; !ok || d.Key() != "(CYCLIC)" {
		t.Errorf("DecompBefore(WRAP) = %v, want cyclic for X", w.Before)
	}
	if d, ok := w.After["X"]; !ok || d.Key() != "(BLOCK)" {
		t.Errorf("DecompAfter(WRAP) = %v", w.After)
	}
	if !w.Kill["X"] {
		t.Errorf("DecompKill(WRAP) = %v", w.Kill)
	}
}

// localSections is a unit's local section summary and its index.
func localSections(u *ast.Procedure) (*comm.SectionSummary, *ast.Index) {
	ix := ast.NewIndex(u)
	return comm.LocalSections(u, ix), ix
}
