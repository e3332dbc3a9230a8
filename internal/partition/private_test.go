package partition_test

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"fortd/internal/ast"
	"fortd/internal/core"
	"fortd/internal/explain"
)

// privateRow is one program of testdata/private: the table of the
// private-scalar rule. Its leading comment lines say what the rule must
// decide, one "! expect <scalar> applied|missed <text of the remark>"
// per decision.
type privateRow struct {
	name, src string
	expect    []privateExpect
}

type privateExpect struct {
	scalar  string
	applied bool
	text    string
}

func privateRows(t *testing.T) []privateRow {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "private", "*.f"))
	if err != nil || len(files) < 17 {
		t.Fatalf("testdata/private: %v %v", files, err)
	}
	var rows []privateRow
	for _, f := range files {
		buf, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		row := privateRow{name: strings.TrimSuffix(filepath.Base(f), ".f"), src: string(buf)}
		for _, line := range strings.Split(row.src, "\n") {
			rest, ok := strings.CutPrefix(line, "! expect ")
			if !ok {
				continue
			}
			f := strings.SplitN(rest, " ", 3)
			if len(f) != 3 || (f[1] != "applied" && f[1] != "missed") {
				t.Fatalf("%s: malformed %q", row.name, line)
			}
			row.expect = append(row.expect, privateExpect{f[0], f[1] == "applied", f[2]})
		}
		if len(row.expect) == 0 {
			t.Fatalf("%s expects nothing", row.name)
		}
		rows = append(rows, row)
	}
	return rows
}

// conds returns, for each statement of prog that match accepts, the
// conditions of the IFs around it, outermost first; an ELSE branch
// counts as the negated condition.
func conds(prog *ast.Program, match func(ast.Stmt) bool) [][]string {
	var out [][]string
	var walk func([]ast.Stmt, []string)
	walk = func(list []ast.Stmt, around []string) {
		for _, s := range list {
			if match(s) {
				out = append(out, around)
			}
			switch st := s.(type) {
			case *ast.Do:
				walk(st.Body, around)
			case *ast.If:
				walk(st.Then, append(slices.Clip(around), st.Cond.String()))
				walk(st.Else, append(slices.Clip(around), ".NOT. "+st.Cond.String()))
			}
		}
	}
	for _, u := range prog.Units {
		walk(u.Body, nil)
	}
	return out
}

// ownership reports whether cond is an ownership test, "... .EQ. my$p".
func ownership(cond string) bool { return strings.HasSuffix(cond, ".EQ. my$p)") }

// assigns matches an assignment to the scalar name.
func assigns(name string) func(ast.Stmt) bool {
	return func(s ast.Stmt) bool {
		a, ok := s.(*ast.Assign)
		return ok && ast.ExprEqual(a.Lhs, ast.Id(name))
	}
}

// calls matches a call of the procedure name.
func calls(name string) func(ast.Stmt) bool {
	return func(s ast.Stmt) bool {
		c, ok := s.(*ast.Call)
		return ok && c.Name == name
	}
}

// TestPrivateScalarTable: every row's decisions carry their remark —
// Applied for the scalars the owner alone computes, Missed with the
// reason for each that stays replicated — and no assignment to a scalar
// the rule refused runs under an ownership guard.
func TestPrivateScalarTable(t *testing.T) {
	for _, row := range privateRows(t) {
		row := row
		t.Run(row.name, func(t *testing.T) {
			opts := core.DefaultOptions()
			opts.Explain = explain.New()
			c, err := core.Compile(row.src, opts)
			if err != nil {
				t.Fatal(err)
			}
			listing := ast.Print(c.Program)
			applied := map[string]bool{}
			for _, e := range row.expect {
				kind := explain.Missed
				if e.applied {
					kind, applied[e.scalar] = explain.Applied, true
				}
				found := false
				for _, r := range opts.Explain.Remarks() {
					found = found || r.Pass == "partition" && r.Name == "private-scalar" && r.Kind == kind &&
						strings.HasPrefix(r.Msg, e.scalar+" ") && strings.Contains(r.Msg, e.text)
				}
				if !found {
					t.Errorf("no %v private-scalar remark for %s with %q in\n%v", kind, e.scalar, e.text, opts.Explain.Remarks())
				}
			}
			for _, e := range row.expect {
				// every processor evaluates a communication statement
				inComm := regexp.MustCompile(`(?m)^\s*(send|recv|post|broadcast|allgather)[^\n]*\b` + e.scalar + `\b`)
				if applied[e.scalar] && inComm.MatchString(listing) {
					t.Errorf("%s is its owner's alone but a communication statement names it:\n%s", e.scalar, listing)
				}
				for _, around := range conds(c.Program, assigns(e.scalar)) {
					if !applied[e.scalar] && slices.ContainsFunc(around, ownership) {
						t.Errorf("%s stays replicated but is assigned under a guard:\n%s", e.scalar, listing)
					}
				}
			}
		})
	}
}

// TestPrivateScalarDgefa: the §9 shape. idamax exports the owner-of-k
// constraint and no communication; in dgefa its call, t and the call to
// dscal run only under the owner-of-k test, which the schedule pass makes
// one test for the three, and column k travels once per step, as the
// section daxpy reads.
func TestPrivateScalarDgefa(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "private", "pos_dgefa.f"))
	if err != nil {
		t.Fatal(err)
	}
	for _, overlap := range []bool{false, true} {
		opts := core.DefaultOptions()
		opts.Overlap = overlap
		c, err := core.Compile(string(src), opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Interfaces["idamax"]; !strings.Contains(got, "iter k ") || strings.Contains(got, "comm ") {
			t.Errorf("idamax exports %q, want the constraint on k and no communication", got)
		}
		dgefa := string(ast.AppendProcedure(nil, c.Program.Proc("dgefa")))
		const guard = "(MOD((k - 1),4) .EQ. my$p)"
		for stmt, match := range map[string]func(ast.Stmt) bool{"call idamax": calls("idamax"), "t = ...": assigns("t"), "call dscal": calls("dscal")} {
			if got := conds(c.Program, match); len(got) != 1 || !slices.Equal(got[0], []string{guard}) {
				t.Errorf("overlap=%v: %s runs under %q, want once under the owner-of-k guard alone:\n%s", overlap, stmt, got, dgefa)
			}
		}
		if got, want := strings.Count(dgefa, "if ("+guard+") then"), map[bool]int{false: 3, true: 1}[overlap]; got != want {
			t.Errorf("overlap=%v: %d owner-of-k tests per step, want %d:\n%s", overlap, got, want, dgefa)
		}
		if strings.Count(dgefa, "broadcast ")+strings.Count(dgefa, "postbcast ") != 1 ||
			!strings.Contains(dgefa, "cast a((k + 1):12,k) from MOD((k - 1),4)") {
			t.Errorf("overlap=%v: want one broadcast of a((k + 1):12,k) per step:\n%s", overlap, dgefa)
		}
	}
}
