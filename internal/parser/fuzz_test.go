package parser

import (
	"os"
	"path/filepath"
	"testing"

	"fortd/internal/ast"
)

// toClauseSrc holds the broadcasts that carry a "to" clause: blocking and
// posted, the bounded dimension first and last, along the tree and the
// ring.
const toClauseSrc = `
      SUBROUTINE dgefa(a,n)
      REAL a(128,128)
      my$p = myproc()
      do k = 1,(n - 1)
        broadcast a((k + 1):128,k) from MOD((k - 1),1024) to a(:,(k + 1):n) ring
        postbcast a(k,1:128) from MOD((k - 1),1024) to a(k:n,:) tag 1
        waitbcast a tag 1
        postbcast a(k,1:128) from MOD((k - 1),1024) to a((k + 1):n,:) ring tag 2
        waitbcast a tag 2
      enddo
      END
`

// FuzzParse asserts the lexer+parser never panic: arbitrary input must
// either parse or return an error, and Parse, which parses unit by unit,
// must agree with the whole-text oracle parseWhole. The corpus is seeded
// with every checked-in Fortran D source under the repository's testdata
// and the node programs (.spmd) beside them,
// with lines that only look like a unit's END, and with broadcasts that
// carry a "to" clause, with and without "ring". A program that holds a
// message statement must survive print → parse → print unchanged.
func FuzzParse(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.f"))
	if err != nil {
		f.Fatal(err)
	}
	nodes, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "*", "*.spmd"))
	for _, path := range append(paths, nodes...) {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add("      PROGRAM P\n      END\n")
	f.Add("      SUBROUTINE S(X, N)\n      REAL X(N)\n      RETURN\n      END\n")
	f.Add("      DECOMPOSITION D(100)\n      ALIGN X WITH D\n      DISTRIBUTE D(BLOCK)\n")
	f.Add(toClauseSrc)
	f.Add("      PROGRAM P\n      C = 0\n      END\n")
	f.Add("      SUBROUTINE S ! END\n      X = 1 ! END\nC END\n! END\n      END ! END\n      PROGRAM P\n      END")
	f.Add("      PROGRAM P\n      do i = 1, 2\n      END\n      enddo\n      END\n")
	f.Add("      PROGRAM P\n      END\n\n! trailing\n      SUBROUTINE S\n      x = #\n      end\n")
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err == nil && prog == nil {
			t.Fatal("Parse returned nil program and nil error")
		}
		sameAsWhole(t, src)
		if err != nil || !holdsMessage(prog) {
			return
		}
		text := ast.Print(prog)
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("printed program does not parse: %v\n%s", err, text)
		}
		if text2 := ast.Print(again); text2 != text {
			t.Fatalf("print → parse → print changed the program:\n%s\n---\n%s", text, text2)
		}
	})
}

// holdsMessage reports whether some unit of prog holds a message
// statement.
func holdsMessage(prog *ast.Program) bool {
	found := false
	for _, u := range prog.Units {
		ast.WalkStmts(u.Body, func(s ast.Stmt) bool {
			_, ok := s.(*ast.Message)
			found = found || ok
			return !found
		})
	}
	return found
}
