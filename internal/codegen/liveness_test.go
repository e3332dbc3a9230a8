package codegen

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"fortd/internal/ast"
	"fortd/internal/parser"
	"fortd/internal/progen"
)

// loopsOf lists proc's loops in source order.
func loopsOf(proc *ast.Procedure) []*ast.Do {
	var loops []*ast.Do
	ast.WalkStmts(proc.Body, func(s ast.Stmt) bool {
		if d, ok := s.(*ast.Do); ok {
			loops = append(loops, d)
		}
		return true
	})
	return loops
}

// TestLiveIndices pins, loop by loop in source order, whether each DO
// index is read after its loop, and checks the oracle says the same.
// It asks liveAfter, not liveIndices: the filter in front of the walk
// skips the rows that reuse an index in nested loops, which Fortran does
// not allow, because every read of i there is inside a loop binding i.
func TestLiveIndices(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		want       []bool
	}{
		{"straight line", `
      PROGRAM P
      do i = 1, 10
        x = i
      enddo
      y = i
      END`, []bool{true}},
		{"straight line, killed", `
      PROGRAM P
      do i = 1, 10
        x = i
      enddo
      i = 3
      y = i
      END`, []bool{false}},
		{"bounds of the next loop", `
      PROGRAM P
      do i = 1, 10
        x = 1
      enddo
      do j = 1, i
        x = j
      enddo
      END`, []bool{true, false}},
		{"back edge", `
      PROGRAM P
      do j = 1, 10
        x = i
        do i = 1, 5
          y = i
        enddo
      enddo
      END`, []bool{false, true}},
		{"IF join", `
      PROGRAM P
      do i = 1, 10
        x = 1
      enddo
      if (x .gt. 0) then
        y = i
      else
        y = 2
      endif
      END`, []bool{true}},
		{"IF join, both branches kill", `
      PROGRAM P
      do i = 1, 10
        x = 1
      enddo
      if (x .gt. 0) then
        i = 1
      else
        i = 2
      endif
      y = i
      END`, []bool{false}},
		{"IF without ELSE", `
      PROGRAM P
      do i = 1, 10
        x = 1
      enddo
      if (x .gt. 0) then
        i = 1
      endif
      y = i
      END`, []bool{true}},
		{"RETURN to the exit, formal", `
      SUBROUTINE S(i, x)
      do i = 1, 10
        x = 1
      enddo
      if (x .gt. 0) then
        return
      endif
      i = 1
      END`, []bool{true}},
		{"RETURN to the exit, local", `
      SUBROUTINE S(x)
      do i = 1, 10
        x = 1
      enddo
      if (x .gt. 0) then
        return
      endif
      i = 1
      END`, []bool{false}},
		{"exit of the main program", `
      PROGRAM P
      COMMON /blk/ i
      do i = 1, 10
        x = 1
      enddo
      END`, []bool{false}},
		{"COMMON at a subroutine's exit", `
      SUBROUTINE S(x)
      COMMON /blk/ i
      do i = 1, 10
        x = 1
      enddo
      END`, []bool{true}},
		{"RETURN inside the loop", `
      SUBROUTINE S(i, x)
      do i = 1, 10
        if (x .gt. 0) then
          return
        endif
      enddo
      i = 1
      END`, []bool{false}},
		{"nested loops reuse an index", `
      PROGRAM P
      do i = 1, 10
        do i = 1, 5
          x = 1
        enddo
        y = i
      enddo
      END`, []bool{false, true}},
		{"nested loops reuse an index, read after both", `
      PROGRAM P
      do i = 1, 10
        do i = 1, 5
          x = 1
        enddo
      enddo
      y = i
      END`, []bool{true, false}},
		{"nested loops reuse an index the outer bounds read", `
      PROGRAM P
      i = 5
      do i = 1, i
        do i = 1, 5
          x = 1
        enddo
      enddo
      END`, []bool{false, true}},
		{"loop after a RETURN", `
      SUBROUTINE S(i, x)
      x = 1
      return
      do i = 1, 10
        x = 2
      enddo
      y = i
      END`, []bool{false}},
		{"loop after a RETURN in a branch", `
      SUBROUTINE S(i, x)
      if (x .gt. 0) then
        return
        do i = 1, 10
          x = 2
        enddo
      endif
      END`, []bool{false}},
		{"loop after an IF whose branches both return", `
      SUBROUTINE S(i, x)
      if (x .gt. 0) then
        return
      else
        x = 1
        return
      endif
      do i = 1, 10
        x = 2
      enddo
      END`, []bool{false}},
		{"loop after an IF whose ELSE returns", `
      SUBROUTINE S(i, x)
      if (x .gt. 0) then
        x = 1
      else
        return
      endif
      do i = 1, 10
        x = 2
      enddo
      END`, []bool{true}},
		{"loop after an IF whose THEN returns", `
      SUBROUTINE S(i, x)
      if (x .gt. 0) then
        return
      else
        x = 1
      endif
      do i = 1, 10
        x = 2
      enddo
      END`, []bool{true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			proc, err := parser.ParseProcedure(strings.TrimPrefix(tc.body, "\n") + "\n")
			if err != nil {
				t.Fatal(err)
			}
			loops, exit := loopsOf(proc), exitIndices(proc)
			walk, oracle := liveAfter(proc.Body, loops, exit), oracleLiveAfter(proc, exit)
			if len(loops) != len(tc.want) {
				t.Fatalf("%d loops, want %d", len(loops), len(tc.want))
			}
			for i, d := range loops {
				if walk[d] != tc.want[i] || oracle[d] != tc.want[i] {
					t.Errorf("loop %d (do %s): walk %v, oracle %v, want %v", i, d.Var, walk[d], oracle[d], tc.want[i])
				}
			}
		})
	}
}

// sameAsOracle reports the first loop of prog on which the walk and the
// oracle disagree; filtered also holds liveIndices, the walk behind its
// filter, to the oracle.
func sameAsOracle(prog *ast.Program, filtered bool) (loops int, err error) {
	for _, u := range prog.Units {
		all, exit := loopsOf(u), exitIndices(u)
		walk, oracle := liveAfter(u.Body, all, exit), oracleLiveAfter(u, exit)
		if filtered {
			walk = liveIndices(u)
		}
		for _, d := range all {
			loops++
			if walk[d] != oracle[d] {
				return loops, fmt.Errorf("%s: do %s at %v: walk %v, oracle %v", u.Name, d.Var, d.Pos(), walk[d], oracle[d])
			}
		}
	}
	return loops, nil
}

// corpusSources is every .f file under testdata.
func corpusSources(t testing.TB) map[string]string {
	srcs := map[string]string{}
	err := filepath.WalkDir("../../testdata", func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || filepath.Ext(path) != ".f" {
			return err
		}
		b, err := os.ReadFile(path)
		srcs[path] = string(b)
		return err
	})
	if err != nil || len(srcs) < 50 {
		t.Fatalf("testdata: %d files, %v", len(srcs), err)
	}
	return srcs
}

// TestLiveIndicesMatchOracle holds the structural walk to the solver on
// every loop of every testdata program and of 400 generated programs,
// with scalar temporaries and without. The oracle has no filter, so this
// also checks that the filter skips only procedures with nothing live.
func TestLiveIndicesMatchOracle(t *testing.T) {
	srcs := corpusSources(t)
	for seed := int64(0); seed < 400; seed++ {
		for _, temps := range []bool{false, true} {
			g := &progen.Gen{Rng: rand.New(rand.NewSource(seed)), N: 24 + int(seed%3)*8, P: []int{3, 4, 6}[seed%3], Temps: temps}
			srcs[fmt.Sprintf("progen/%03d/temps=%v", seed, temps)] = g.Generate()
		}
	}
	var names []string
	for name := range srcs {
		names = append(names, name)
	}
	slices.Sort(names)
	total, live := 0, 0
	for _, name := range names {
		prog, err := parser.Parse(srcs[name])
		if err != nil {
			continue // the parser's own error rows
		}
		n, err := sameAsOracle(prog, false)
		if err == nil {
			_, err = sameAsOracle(prog, true)
		}
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		total += n
		for _, u := range prog.Units {
			for _, v := range liveIndices(u) {
				if v {
					live++
				}
			}
		}
	}
	t.Logf("%d loops of %d programs agree, %d indices live after their loop", total, len(names), live)
	if total < 2000 || live == 0 {
		t.Errorf("%d loops, %d live: the corpus shrank", total, live)
	}
}

// FuzzLiveIndices compares the walk with the oracle on arbitrary
// programs, seeded from testdata.
func FuzzLiveIndices(f *testing.F) {
	for _, src := range corpusSources(f) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := parser.Parse(src)
		if err != nil {
			return
		}
		if _, err := sameAsOracle(prog, false); err != nil {
			t.Fatal(err)
		}
	})
}
