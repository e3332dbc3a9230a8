package parser

import (
	"regexp"
	"slices"
	"testing"

	"fortd/internal/ast"
	"fortd/internal/lexer"
)

// parseWhole is the parser as it was before a program unit became the
// unit of parsing: one token stream for the whole text, the units parsed
// off it in turn. It is kept as the oracle FuzzParse holds Parse to.
func parseWhole(src string) (*ast.Program, error) {
	toks, err := lexer.Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var units []*ast.Procedure
	for !p.at(lexer.EOF) {
		u, err := p.parseUnit()
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	return program(units)
}

var hasLine = regexp.MustCompile(`^line \d+: `)

// sameAsWhole checks Parse against parseWhole on one input: both accept
// or both reject it; a rejection names a line whenever the oracle's
// does (the two may name different errors, since the oracle lexes the
// whole text before it parses any of it); and an accepted program
// prints, and positions every statement, the same.
func sameAsWhole(t *testing.T, src string) {
	t.Helper()
	prog, err := Parse(src)
	want, wantErr := parseWhole(src)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%q: error %v, oracle %v", src, err, wantErr)
	}
	if err != nil {
		if err.Error() != wantErr.Error() && !(hasLine.MatchString(err.Error()) && hasLine.MatchString(wantErr.Error())) {
			t.Fatalf("%q: error %v, oracle %v", src, err, wantErr)
		}
		return
	}
	if got, w := ast.Print(prog), ast.Print(want); got != w {
		t.Fatalf("%q: prints\n%s\n--- oracle\n%s", src, got, w)
	}
	if got, w := positions(prog), positions(want); !slices.Equal(got, w) {
		t.Fatalf("%q: statements at lines %v, oracle %v", src, got, w)
	}
}

// positions lists the line of every statement of prog in program order.
func positions(prog *ast.Program) []int {
	var lines []int
	for _, u := range prog.Units {
		ast.WalkStmts(u.Body, func(s ast.Stmt) bool { lines = append(lines, s.Pos().Line); return true })
	}
	return lines
}
