package core

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"fortd/internal/ast"
	"fortd/internal/codegen"
	"fortd/internal/parser"
	"fortd/internal/progen"
	"fortd/internal/summarycache"
)

// walkRef is one array reference as the walk the index replaced finds
// it: WalkStmts, then StmtExprs, then WalkExpr.
type walkRef struct {
	ref        *ast.ArrayRef
	at         int
	lhs, write bool
}

// walkIndex lists u's statements, the loops around each, the statements
// nested in each, its array references, definitions and CALLs with the
// walk alone: the oracle of ast.NewIndex.
func walkIndex(u *ast.Procedure) (stmts []ast.Stmt, nests map[ast.Stmt][]*ast.Do, inner map[ast.Stmt]int, refs []walkRef, defs []ast.Def, calls []int) {
	nests, inner = map[ast.Stmt][]*ast.Do{}, map[ast.Stmt]int{}
	ast.WalkStmts(u.Body, func(s ast.Stmt) bool {
		k := len(stmts)
		stmts = append(stmts, s)
		for i, e := range ast.StmtExprs(s) {
			ast.WalkExpr(e, func(e ast.Expr) {
				if x, ok := e.(*ast.ArrayRef); ok {
					asg, _ := s.(*ast.Assign)
					refs = append(refs, walkRef{ref: x, at: k, lhs: asg != nil && i == 0, write: asg != nil && asg.Lhs == ast.Expr(x)})
				}
			})
		}
		var body [][]ast.Stmt
		switch st := s.(type) {
		case *ast.Assign:
			if id, ok := st.Lhs.(*ast.Ident); ok {
				defs = append(defs, ast.Def{Name: id.Name, At: k})
			}
		case *ast.Do:
			defs = append(defs, ast.Def{Name: st.Var, At: k})
			body = append(body, st.Body)
			ast.WalkStmts(st.Body, func(in ast.Stmt) bool {
				nests[in] = append(slices.Clone(nests[in]), st)
				return true
			})
		case *ast.If:
			body = append(body, st.Then, st.Else)
		case *ast.Call:
			calls = append(calls, k)
			for _, a := range st.Args {
				if id, ok := a.(*ast.Ident); ok {
					defs = append(defs, ast.Def{Name: id.Name, At: k})
				}
			}
		}
		for _, b := range body {
			ast.WalkStmts(b, func(ast.Stmt) bool { inner[s]++; return true })
		}
		return true
	})
	return
}

// checkIndex compares ix with the walk's lists for u.
func checkIndex(t *testing.T, name string, u *ast.Procedure, ix *ast.Index) {
	t.Helper()
	stmts, nests, inner, refs, defs, calls := walkIndex(u)
	if len(ix.Stmts) != len(stmts) {
		t.Fatalf("%s %s: the index lists %d statements, the walk %d", name, u.Name, len(ix.Stmts), len(stmts))
	}
	for k, site := range ix.Stmts {
		if site.Stmt != stmts[k] || !slices.Equal(site.Nest, nests[stmts[k]]) || site.End != k+1+inner[stmts[k]] {
			t.Fatalf("%s %s: statement %d (line %d): the index has nest %d, end %d; the walk nest %d, end %d",
				name, u.Name, k, stmts[k].Pos().Line, len(site.Nest), site.End, len(nests[stmts[k]]), k+1+inner[stmts[k]])
		}
		var own []walkRef
		for _, r := range refs {
			if r.at == k {
				own = append(own, r)
			}
		}
		got := ix.RefsOf(k)
		if len(got) != len(own) {
			t.Fatalf("%s %s: statement %d: the index lists %d references, the walk %d", name, u.Name, k, len(got), len(own))
		}
		for i, r := range got {
			if w := own[i]; r.ArrayRef != w.ref || r.Lhs != w.lhs || r.Write != w.write {
				t.Fatalf("%s %s: statement %d, reference %d %s: the index has (%v, %v), the walk %s (%v, %v)",
					name, u.Name, k, i, r.ArrayRef, r.Lhs, r.Write, w.ref, w.lhs, w.write)
			}
		}
	}
	if len(ix.Refs) != len(refs) {
		t.Fatalf("%s %s: the index lists %d references, the walk %d", name, u.Name, len(ix.Refs), len(refs))
	}
	if !slices.Equal(ix.Defs, defs) || !slices.Equal(ix.Calls, calls) {
		t.Fatalf("%s %s: the index has definitions %v and calls %v, the walk %v and %v", name, u.Name, ix.Defs, ix.Calls, defs, calls)
	}
}

// TestIndexMatchesWalk holds ast.NewIndex to the walk every pass did
// before it: on every unit of testdata and of progen's seeds 0–49, with
// and without temporaries, the index lists the statements, nests,
// references, definitions and CALLs the walk finds, in its order. Each
// program is then compiled under every strategy against a cache that
// keeps the index its passes read; after those compiles the kept index
// still equals one built anew, so no pass writes it.
func TestIndexMatchesWalk(t *testing.T) {
	srcs := map[string]string{}
	err := filepath.WalkDir("../../testdata", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".f") {
			return err
		}
		b, err := os.ReadFile(path)
		srcs[path] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 50; seed++ {
		for _, temps := range []bool{false, true} {
			g := &progen.Gen{Rng: rand.New(rand.NewSource(seed)), N: 24 + int(seed%3)*8, P: []int{3, 4, 6}[seed%3], Temps: temps}
			srcs[fmt.Sprintf("progen %d temps=%v", seed, temps)] = g.Generate()
		}
	}
	units, failed := 0, 0
	for name, src := range srcs {
		cache := summarycache.New()
		prog, err := parser.ParseMemo(src, cache)
		if err != nil {
			continue // a row of a parse error
		}
		for _, u := range prog.Units {
			l, _ := cache.Local(u)
			checkIndex(t, name, u, l.Index)
			units++
		}
		for _, s := range []codegen.Strategy{codegen.StrategyInterproc, codegen.StrategyRuntime, codegen.StrategyImmediate} {
			opts := DefaultOptions()
			opts.Strategy, opts.Cache = s, cache
			if _, err := CompileProgram(prog, opts); err != nil {
				failed++
			}
		}
		for _, u := range prog.Units {
			l, fresh := cache.Local(u)
			if fresh {
				t.Fatalf("%s %s: the cache did not keep the unit's local facts", name, u.Name)
			}
			if !reflect.DeepEqual(l.Index, ast.NewIndex(u)) {
				t.Fatalf("%s %s: after the compiles the kept index differs from a new one", name, u.Name)
			}
		}
	}
	t.Logf("%d programs, %d units, %d failed compiles", len(srcs), units, failed)
}
