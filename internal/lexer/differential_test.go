package lexer

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sameTokens compares the scanner with the line-splitting oracle on one
// input: same error, or the same tokens field for field.
func sameTokens(t *testing.T, src string) {
	t.Helper()
	got, err := Tokenize(src)
	want, wantErr := OldTokenize(src)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%q: error %v, oracle %v", src, err, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%q: %d tokens, oracle %d", src, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Kind != w.Kind || g.Text != w.Text || g.Line != w.Line || g.Int != w.Int ||
			math.Float64bits(g.Value) != math.Float64bits(w.Value) {
			t.Fatalf("%q: token %d = %+v, oracle %+v", src, i, g, w)
		}
	}
}

// sameEnds checks IsEnd against the scanner on every line of src: a
// line ends a program unit exactly when Tokenize yields it as one END
// identifier and the statement end, the lone END the parser ends a
// unit at.
func sameEnds(t *testing.T, src string) {
	t.Helper()
	for i, raw := range strings.Split(src, "\n") {
		toks, err := TokenizeAt(nil, raw, i+1)
		lone := err == nil && len(toks) == 3 && toks[0].Kind == IDENT &&
			strings.ToUpper(toks[0].Text) == "END" && toks[1].Kind == NEWLINE
		if IsEnd(raw) != lone {
			t.Fatalf("%q: line %d %q: IsEnd %v, scanned as a lone END %v", src, i+1, raw, IsEnd(raw), lone)
		}
	}
}

var lexerSeeds = []string{
	"", "\n", "\n\n", "x", "x\n", "  \t x = 1 \r\n", "c\nC\nc comment\nC comment\ncall f\ncx = 1\n",
	"* star\n! bang\n   ! indented\nx = 1 ! trailing\n ! \n!\n", "x = 'a!b'\n", "x = 'unterminated\n",
	"x = 1.5e3 + 2.d0 - 3.D-2 * .5 / 1. + 1.e5 + 1e+ + 007 + 99999999999999999999 + 1e999 + 1d400\n",
	"if (a .EQ. b .and. .not. c .or. .true. .ne. .FALSE.) x = 2**3\n", "x = a .foo. b\n", "x = a .eq b\n",
	"my$p = ub$1 + _u\n", "x = 1.eq.2\n", "x = 1.e\n", "x = 3.x\n", "a(1:n, 2) = b / c\n", "x = #\n",
	" x = 1 \n", " x = 1\n", "\vx\f\n", "x = été\n", "\xff\xfe = 1\n", "K = K\n", "c x\n",
	"      C = 0\n      c = C\n  * 2\n\tc\nc\r\n*\nC\v \nC\vX\n",
	"END\n  end  \n\tEnd\r\nc END\nC\tEND\n* END\n! END\n      END ! END\n      ENDx\n      E ND\n      END DO\n      C = 0\n",
	"      PROGRAM P\n      REAL a(10)\n      do i = 1, 10\n        a(i) = 0.5 * a(i-1) + 1.0\n      enddo\n      END\n",
}

func TestTokenizeMatchesLineSplitter(t *testing.T) {
	for _, src := range lexerSeeds {
		sameTokens(t, src)
		sameEnds(t, src)
	}
	files, err := filepath.Glob("../../testdata/*.f")
	if err != nil || len(files) < 5 {
		t.Fatalf("testdata: %v %v", files, err)
	}
	fuzzed, _ := filepath.Glob("../../testdata/fuzz/*/*")
	parserSeeds, _ := filepath.Glob("../parser/testdata/fuzz/*/*")
	for _, f := range append(append(files, fuzzed...), parserSeeds...) {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		sameTokens(t, string(b))
		sameEnds(t, string(b))
	}
}

var sweepLoop = "      do i = 2, 31\n        x(i) = 0.5 * x(i-1) + 0.25 * x(i+1) + 1.0\n      enddo\n"

// TestTokenSliceSizedOnce: ordinary source must fit the up-front
// estimate, so scanning it allocates the token slice and nothing else.
func TestTokenSliceSizedOnce(t *testing.T) {
	src := strings.Repeat(sweepLoop, 200)
	toks, err := Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	if cap(toks) != len(src)/2+8 {
		t.Errorf("%d tokens from %d bytes regrew the slice: cap %d, sized %d", len(toks), len(src), cap(toks), len(src)/2+8)
	}
	if n := testing.AllocsPerRun(10, func() { Tokenize(src) }); n > 2 {
		t.Errorf("Tokenize allocates %v times, want the lexer and its token slice", n)
	}
}

func FuzzTokenize(f *testing.F) {
	for _, s := range lexerSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		sameTokens(t, src)
		sameEnds(t, src)
	})
}

func BenchmarkLex(b *testing.B) {
	src := strings.Repeat(sweepLoop, 2000)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Tokenize(src); err != nil {
			b.Fatal(err)
		}
	}
}
