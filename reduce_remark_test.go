package fortd

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"fortd/internal/ast"
	"fortd/internal/explain"
)

// reducedLoop reads the loop an Applied reduce-bounds remark names.
var reducedLoop = regexp.MustCompile(`bounds of loop (\S+) reduced`)

// TestReduceRemarkMatchesListing holds the reduce-bounds remark to the
// listing, both asking partition.Reducible: for every testdata program
// and the digest's generators, under the two strategies that reduce
// loops, every statement an Applied remark is about sits, wherever the
// listing has it, inside a loop over the named index that runs only the
// processor's own iterations (reducedAt).
func TestReduceRemarkMatchesListing(t *testing.T) {
	var cases []digestCase
	err := filepath.WalkDir("testdata", func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(path, ".f") {
			b, rerr := os.ReadFile(path)
			cases = append(cases, digestCase{name: path, src: string(b)})
			return rerr
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range digestCases(t) {
		if strings.HasPrefix(c.name, "gen/") || strings.HasPrefix(c.name, "bench/") {
			cases = append(cases, c)
		}
	}
	checked := 0
	for _, c := range cases {
		for _, st := range []Strategy{Interprocedural, Immediate} {
			ex := NewExplain()
			opts := DefaultOptions()
			opts.Strategy, opts.Explain = st, ex
			p, err := Compile(c.src, opts)
			if err != nil {
				continue
			}
			for _, r := range ex.Remarks() {
				m := reducedLoop.FindStringSubmatch(r.Msg)
				if r.Pass != "partition" || r.Name != "reduce-bounds" || r.Kind != explain.Applied || m == nil {
					continue
				}
				checked++
				if found, unreduced := reducedAt(p.c.Program.Proc(r.Proc), r.Line, m[1]); found == 0 || unreduced > 0 {
					t.Errorf("%s %v: %s line %d: %q, but %d of the %d statements at that line are not in a reduced loop %s\n%s",
						c.name, st, r.Proc, r.Line, r.Msg, unreduced, found, m[1], p.Listing())
				}
			}
		}
	}
	if checked < 500 {
		t.Errorf("only %d Applied reduce-bounds remarks checked", checked)
	}
}

// reducedAt counts the assignments and calls of u at line, and those of
// them not inside a loop over v that runs only the processor's own
// iterations: its bounds read my$p, or it sits under a test of my$p
// (the pivot iteration the schedule pass peels).
func reducedAt(u *ast.Procedure, line int, v string) (found, unreduced int) {
	var walk func(body []ast.Stmt, loop *ast.Do, owned bool)
	walk = func(body []ast.Stmt, loop *ast.Do, owned bool) {
		for _, s := range body {
			switch st := s.(type) {
			case *ast.Do:
				if st.Var == v {
					walk(st.Body, st, owned || readsMyP(st.Lo) || readsMyP(st.Hi))
				} else {
					walk(st.Body, loop, owned)
				}
			case *ast.If:
				owned := owned || loop == nil && readsMyP(st.Cond)
				walk(st.Then, loop, owned)
				walk(st.Else, loop, owned)
			case *ast.Assign, *ast.Call:
				if s.Pos().Line != line {
					continue
				}
				found++
				if loop == nil || !owned {
					unreduced++
				}
			}
		}
	}
	if u != nil {
		walk(u.Body, nil, false)
	}
	return found, unreduced
}

func readsMyP(e ast.Expr) (found bool) {
	ast.WalkExpr(e, func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok && id.Name == "my$p" {
			found = true
		}
	})
	return found
}

// TestReduceRemarkNamesTheStep: a loop that carries its statements'
// partition but does not step by one keeps its bounds, and its Missed
// remark names the step; a step of 1 that is a PARAMETER is reduced,
// and the schedule pass then splits its halo.
func TestReduceRemarkNamesTheStep(t *testing.T) {
	const src = `
      PROGRAM NSTEP
      PARAMETER (n$proc = 4, ns = 1)
      REAL x(24), y(24)
      DISTRIBUTE x(BLOCK)
      DISTRIBUTE y(BLOCK)
      do i = 1, 24
        x(i) = i
      enddo
      do i = 2, 23, QQ
        y(i) = x(i-1) + x(i+1)
      enddo
      END
`
	for _, c := range []struct {
		step, want string
		reduced    bool
	}{
		{"2", "bounds of loop i not reduced: it steps by 2, not 1", false},
		{"-1", "bounds of loop i not reduced: it steps by -1, not 1", false},
		{"m", "bounds of loop i not reduced: its step m is not a known constant", false},
		{"ns", "bounds of loop i reduced to the local index set of y", true},
	} {
		ex := NewExplain()
		opts := DefaultOptions()
		opts.Explain = ex
		p, err := Compile(strings.Replace(src, "QQ", c.step, 1), opts)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, r := range ex.Remarks() {
			if r.Line == 11 && (r.Name == "reduce-bounds" || r.Pass == "sched") {
				got = append(got, r.Kind.String()+" "+r.Msg)
			}
		}
		all := strings.Join(got, "\n")
		if !strings.Contains(all, c.want) || c.reduced && strings.Contains(all, "non-unit step") {
			t.Errorf("step %s: remarks at line 11:\n%s\nwant %q (and, reduced, no \"non-unit step\")", c.step, all, c.want)
		}
		if found, unreduced := reducedAt(p.c.Program.Main(), 11, "i"); found == 0 || (unreduced == 0) != c.reduced {
			t.Errorf("step %s: %d statements at line 11, %d outside a reduced loop, want reduced %v\n%s", c.step, found, unreduced, c.reduced, p.Listing())
		}
	}
}
