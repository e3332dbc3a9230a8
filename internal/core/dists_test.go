package core

import (
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"fortd/internal/ast"
	"fortd/internal/reach"
)

// swapSrc redistributes a to b's first decomposition, so a map that
// compared a statement's decomposition with the wrong array's first one
// would drop the statement's own Dist for a.
const swapSrc = `
      PROGRAM SWAP
      PARAMETER (n$proc = 4)
      REAL a(64), b(64)
      DISTRIBUTE a(BLOCK)
      DISTRIBUTE b(CYCLIC)
      do i = 1, 64
        a(i) = b(i)
      enddo
      DISTRIBUTE a(CYCLIC)
      do i = 1, 64
        b(i) = a(i) + b(i)
      enddo
      END
`

// TestSparseDistOf holds procDists' sparse per-statement map to what it
// stands for: at every statement, every array the statement references
// resolves to the Dist of the decomposition reaching it there, whether
// the statement keeps a Dist of its own (a decomposition that differs
// from the array's first use) or falls back to the array's. Equal is
// the same Key, the same Sizes and the same owners.
func TestSparseDistOf(t *testing.T) {
	srcs := map[string]string{"adi_dynamic": adiSrc(16, 2, 4, true), "swap": swapSrc}
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
	checked, differs := 0, 0
	for name, src := range srcs {
		c, err := Compile(src, DefaultOptions())
		if err != nil {
			t.Logf("%s is rejected: %v", name, err)
			continue
		}
		for _, proc := range c.Reach.Graph.Program.Units {
			env := proc.Constants()
			_, distOf, _ := c.procDists(proc, ast.NewIndex(proc), env, nil)
			first := map[string]string{}
			check := func(s ast.Stmt, array string, cur *reach.State) {
				d, ok := cur.Lookup(array).Single()
				if !ok {
					return
				}
				if _, seen := first[array]; !seen {
					first[array] = d.Key()
				}
				want := mkDistFor(c.Reach.Graph.Nodes[proc.Name], array, d, env, c.P)
				if want == nil {
					return
				}
				checked++
				if d.Key() != first[array] {
					differs++
				}
				got, ok := distOf(array, s)
				if !ok || got == nil || got.Key() != want.Key() || !slices.Equal(got.Sizes, want.Sizes) || !got.SameOwners(want) {
					t.Errorf("%s: %s line %d: distOf(%s) = %v, %v; the reaching decomposition gives %v",
						name, proc.Name, s.Pos().Line, array, got, ok, want)
				}
			}
			reach.NewState(proc, c.Reach.Reaching[proc.Name]).WalkBody(proc.Body, func(s ast.Stmt, cur *reach.State) {
				for _, e := range ast.StmtExprs(s) {
					ast.WalkExpr(e, func(e ast.Expr) {
						if x, ok := e.(*ast.ArrayRef); ok {
							check(s, x.Name, cur)
						}
					})
				}
				switch x := s.(type) {
				case *ast.Assign:
					if lhs, ok := x.Lhs.(*ast.ArrayRef); ok {
						check(s, lhs.Name, cur)
					}
				case *ast.Call:
					for _, a := range x.Args {
						if id, ok := a.(*ast.Ident); ok {
							if sym := proc.Symbols.Lookup(id.Name); sym != nil && sym.Kind == ast.SymArray {
								check(s, id.Name, cur)
							}
						}
					}
				}
			})
		}
	}
	if checked == 0 || differs == 0 {
		t.Errorf("%d references checked, %d under a decomposition other than their array's first one: the map is not exercised", checked, differs)
	}
	t.Logf("%d references checked, %d under a decomposition other than their array's first one", checked, differs)
}
