package fortd

import (
	"fmt"
	"strings"
	"testing"

	"fortd/internal/ast"
	"fortd/internal/core"
	"fortd/internal/explain"
	"fortd/internal/parser"
	"fortd/internal/summarycache"
)

// editUnit returns src with edit applied to its k-th program unit (the
// generated programs' MAIN is unit 0, subroutine sk unit k).
func editUnit(src string, k int, edit func(unit string) string) string {
	units := strings.SplitAfter(src, "      END\n")
	units[k] = edit(units[k])
	return strings.Join(units, "")
}

// recompile compiles base and then edited on one summary cache, and
// returns edited's compilation and the text of its outcome: the listing,
// every remark with its position, the cache's hits and misses, or the
// error. With memo the compiles start from source text, so the cache
// also remembers parsed units; without, each text is parsed cold first.
func recompile(t *testing.T, base, edited string, memo bool) (*core.Compilation, string) {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Cache = summarycache.New()
	compile := func(src string) (*core.Compilation, error) {
		if memo {
			return core.Compile(src, opts)
		}
		prog, err := parser.Parse(src)
		if err != nil {
			return nil, err
		}
		return core.CompileProgram(prog, opts)
	}
	if _, err := compile(base); err != nil {
		t.Fatal(err)
	}
	opts.Explain = explain.New()
	c, err := compile(edited)
	if err != nil {
		return nil, "error: " + err.Error()
	}
	var b strings.Builder
	b.WriteString(ast.Print(c.Program))
	for _, r := range opts.Explain.Remarks() {
		b.WriteString(r.String() + "\n")
	}
	fmt.Fprintf(&b, "hits %v\nmisses %v\n", c.CacheHits, c.CacheMisses)
	return c, b.String()
}

// TestEditReparsesOnlyEditedUnit: a warm compile takes every unit whose
// text and first line are unchanged from the cache's memo of parsed
// units, and parses the rest. A one-constant edit re-parses its unit, a
// line inserted into unit k re-parses k and every unit after it (their
// lines moved), and a resubmit parses nothing; the listing, the remarks
// with their positions and the cache's hits and misses are those of the
// same compile from a cold parse, byte for byte, and so is the error of
// a syntax error in a late unit.
func TestEditReparsesOnlyEditedUnit(t *testing.T) {
	src := SyntheticProcsSrc(32, 8, 32, 4)
	opts := core.DefaultOptions()
	opts.Cache = summarycache.New()
	base, err := core.Compile(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		edited string
		parsed func(k int) bool // which units the warm compile parses
	}{
		{"resubmit", src, func(int) bool { return false }},
		{"constant", editUnit(src, 7, func(u string) string { return strings.Replace(u, ".0\n", ".5\n", 1) }),
			func(k int) bool { return k == 7 }},
		{"inserted line", editUnit(src, 12, func(u string) string { return strings.Replace(u, "      do", "      x(1) = 0.0\n      do", 1) }),
			func(k int) bool { return k >= 12 }},
		{"syntax error", editUnit(src, 30, func(u string) string { return strings.Replace(u, "0.5 *", "0.5 * )", 1) }), nil},
	} {
		warm, got := recompile(t, src, c.edited, true)
		if _, want := recompile(t, src, c.edited, false); got != want {
			t.Errorf("%s: the warm compile differs from a cold parse's:\n%s\n--- cold\n%s", c.name, got, want)
		}
		if c.parsed == nil {
			if !strings.Contains(got, "error: line ") {
				t.Errorf("%s: %q names no line", c.name, got)
			}
			continue
		}
		again, err := core.Compile(c.edited, opts)
		if err != nil {
			t.Fatal(err)
		}
		for k, u := range again.Source.Units {
			if memoized := u == base.Source.Units[k]; memoized == c.parsed(k) {
				t.Errorf("%s: unit %d (%s) memoized %v", c.name, k, u.Name, memoized)
			}
		}
		if len(again.Source.Units) != 33 || ast.Print(again.Source) != ast.Print(warm.Source) {
			t.Errorf("%s: the memoized program differs from its parse", c.name)
		}
	}
}
