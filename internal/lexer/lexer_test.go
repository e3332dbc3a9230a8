package lexer

import (
	"fmt"
	"strings"
	"testing"
)

func kinds(toks []Token) []Kind {
	out := make([]Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestBasicTokens(t *testing.T) {
	toks, err := Tokenize("X(i) = F(X(i+5))")
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{IDENT, LPAREN, IDENT, RPAREN, EQUALS, IDENT, LPAREN, IDENT, LPAREN, IDENT, PLUS, INT, RPAREN, RPAREN, NEWLINE, EOF}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %d tokens %v", len(got), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestDollarIdentifiers(t *testing.T) {
	toks, err := Tokenize("my$p = n$proc")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != "my$p" || toks[2].Text != "n$proc" {
		t.Errorf("tokens = %v %v", toks[0].Text, toks[2].Text)
	}
}

func TestRelationalOperators(t *testing.T) {
	toks, err := Tokenize("a .GT. b .AND. c .le. d .NE. e")
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	for _, tk := range toks {
		if tk.Kind == RELOP {
			ops = append(ops, tk.Text)
		}
	}
	want := []string{"GT", "AND", "LE", "NE"}
	if len(ops) != len(want) {
		t.Fatalf("ops = %v", ops)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("op %d = %s, want %s", i, ops[i], want[i])
		}
	}
}

func TestNumbers(t *testing.T) {
	toks, err := Tokenize("x = 42 + 3.5 + 1e3 + 2.5e-2 + 1d0 + .5")
	if err != nil {
		t.Fatal(err)
	}
	var ints []int
	var reals []float64
	for _, tk := range toks {
		switch tk.Kind {
		case INT:
			ints = append(ints, tk.Int)
		case REAL:
			reals = append(reals, tk.Value)
		}
	}
	if len(ints) != 1 || ints[0] != 42 {
		t.Errorf("ints = %v", ints)
	}
	wantReals := []float64{3.5, 1000, 0.025, 1, 0.5}
	if len(reals) != len(wantReals) {
		t.Fatalf("reals = %v", reals)
	}
	for i := range wantReals {
		if reals[i] != wantReals[i] {
			t.Errorf("real %d = %v, want %v", i, reals[i], wantReals[i])
		}
	}
}

func TestPowerOperator(t *testing.T) {
	toks, err := Tokenize("x = a ** 2 * b")
	if err != nil {
		t.Fatal(err)
	}
	hasPow, stars := false, 0
	for _, tk := range toks {
		if tk.Kind == POW {
			hasPow = true
		}
		if tk.Kind == STAR {
			stars++
		}
	}
	if !hasPow || stars != 1 {
		t.Errorf("pow=%v stars=%d", hasPow, stars)
	}
}

func TestCommentsSkipped(t *testing.T) {
	src := `
! full line comment
c     old-style comment
      x = 1  ! trailing comment
* asterisk comment
      y = 2
`
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	idents := 0
	for _, tk := range toks {
		if tk.Kind == IDENT {
			idents++
		}
	}
	if idents != 2 {
		t.Errorf("idents = %d, want 2 (x and y)", idents)
	}
}

// TestIndentedCIsAStatement: 'c', 'C' and '*' open a comment only in
// column 1, so the printer's "      C = 0" is an assignment to C.
func TestIndentedCIsAStatement(t *testing.T) {
	toks, err := Tokenize("C comment\n      C = 0\n* star\n      c = C\n")
	if err != nil {
		t.Fatal(err)
	}
	var idents []string
	for _, tk := range toks {
		if tk.Kind == IDENT {
			idents = append(idents, fmt.Sprintf("%s@%d", tk.Text, tk.Line))
		}
	}
	if got := strings.Join(idents, " "); got != "C@2 c@4 C@4" {
		t.Errorf("identifiers %q, want the assignments on lines 2 and 4", got)
	}
}

func TestBlankLinesNoTokens(t *testing.T) {
	toks, err := Tokenize("\n\n   \n")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 1 || toks[0].Kind != EOF {
		t.Errorf("tokens = %v", toks)
	}
}

func TestLineNumbers(t *testing.T) {
	toks, err := Tokenize("a = 1\n\nb = 2")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Line != 1 {
		t.Errorf("a at line %d", toks[0].Line)
	}
	var bLine int
	for _, tk := range toks {
		if tk.Kind == IDENT && tk.Text == "b" {
			bLine = tk.Line
		}
	}
	if bLine != 3 {
		t.Errorf("b at line %d, want 3", bLine)
	}
}

func TestLogicalLiterals(t *testing.T) {
	toks, err := Tokenize("x = .TRUE.\ny = .FALSE.")
	if err != nil {
		t.Fatal(err)
	}
	var vals []int
	for _, tk := range toks {
		if tk.Kind == INT {
			vals = append(vals, tk.Int)
		}
	}
	if len(vals) != 2 || vals[0] != 1 || vals[1] != 0 {
		t.Errorf("vals = %v", vals)
	}
}

func TestErrors(t *testing.T) {
	for _, src := range []string{
		"x = 'unterminated",
		"x = .BADOP. y",
		"x = a .GT b", // unterminated dotted op
		"x = #",
	} {
		if _, err := Tokenize(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestColonAndSlash(t *testing.T) {
	toks, err := Tokenize("DISTRIBUTE X(BLOCK,:)\nCOMMON /blk/ G")
	if err != nil {
		t.Fatal(err)
	}
	hasColon, slashes := false, 0
	for _, tk := range toks {
		if tk.Kind == COLON {
			hasColon = true
		}
		if tk.Kind == SLASH {
			slashes++
		}
	}
	if !hasColon || slashes != 2 {
		t.Errorf("colon=%v slashes=%d", hasColon, slashes)
	}
}
