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
	"fortd/internal/trace"
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

// taggedSrc is a program whose schedule assigns post/wait tags in more
// than one unit: jac1's and jac2's halo splits. Its MAIN calls dgefa's
// units too, which use no tags.
const taggedSrc = `      PROGRAM MAIN
      PARAMETER (n$proc = 4)
      REAL a(32,32), b(32,32), c(64,64)
      DISTRIBUTE a(BLOCK,:)
      DISTRIBUTE b(BLOCK,:)
      DISTRIBUTE c(:,CYCLIC)
      call jac1(a, b)
      call jac2(a, b)
      call dgefa(c, 64)
      END
      SUBROUTINE jac1(a, b)
      REAL a(32,32), b(32,32)
      do t = 1, 8
        do i = 2, 31
          do j = 2, 31
            b(i,j) = 0.5 * (a(i,j-1) + a(i,j+1))
          enddo
        enddo
        do i = 2, 31
          do j = 2, 31
            a(i,j) = b(i,j)
          enddo
        enddo
      enddo
      END
      SUBROUTINE jac2(a, b)
      REAL a(32,32), b(32,32)
      do t = 1, 8
        do i = 2, 31
          do j = 2, 31
            b(i,j) = 0.25 * (a(i-1,j) + a(i+1,j) + a(i,j-1) + a(i,j+1))
          enddo
        enddo
        do i = 2, 31
          do j = 2, 31
            a(i,j) = b(i,j)
          enddo
        enddo
      enddo
      END
      SUBROUTINE dgefa(a, n)
      REAL a(64,64)
      do k = 1, n-1
        t = 1.0 / a(k,k)
        call dscal(a, n, k, t)
        do j = k+1, n
          call daxpy(a, n, k, j)
        enddo
      enddo
      END
      SUBROUTINE dscal(a, n, k, t)
      REAL a(64,64)
      do i = k+1, n
        a(i,k) = a(i,k) * t
      enddo
      END
      SUBROUTINE daxpy(a, n, k, j)
      REAL a(64,64)
      do i = k+1, n
        a(i,j) = a(i,j) - a(i,k) * a(k,j)
      enddo
      END
`

// counter returns the value tr last recorded for the named counter, or
// -1 if it recorded none.
func counter(tr *trace.Tracer, name string) int64 {
	v := int64(-1)
	for _, ev := range tr.Events() {
		if ev.Kind == trace.KindCounter && ev.Name == name {
			v = ev.Value
		}
	}
	return v
}

// TestEditReschedulesOnlyItsCone: with a cache, the schedule pass runs
// only on units whose schedule the cache does not hold (the
// units-scheduled counter). A resubmit of the 33-unit program schedules
// nothing and a one-constant edit of s7 schedules s7 and MAIN, whose
// callee changed. Every compile's listing, remarks and comm-overlapped
// count are a cold compile's without a cache, byte for byte: also over
// overlap off and on again on one cache, and when an edit adds split
// sites to jac1, which moves the tags of every unit after it.
func TestEditReschedulesOnlyItsCone(t *testing.T) {
	src := SyntheticProcsSrc(32, 8, 32, 4)
	constant := editUnit(src, 7, func(u string) string { return strings.Replace(u, ".0\n", ".5\n", 1) })
	shifted := strings.Replace(taggedSrc, "0.5 * (a(i,j-1) + a(i,j+1))", "0.5 * (a(i-1,j) + a(i+1,j))", 1)
	cache := summarycache.New()
	compile := func(src string, overlap bool, cache *summarycache.Cache) (string, int64) {
		opts := core.DefaultOptions()
		opts.Overlap, opts.Cache, opts.Explain, opts.Trace = overlap, cache, explain.New(), trace.New()
		c, err := core.Compile(src, opts)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		b.WriteString(cache.Listing(c.Program))
		for _, r := range opts.Explain.Remarks() {
			b.WriteString(r.String() + "\n")
		}
		fmt.Fprintf(&b, "comm-overlapped %d\n", counter(opts.Trace, "comm-overlapped"))
		return b.String(), counter(opts.Trace, "units-scheduled")
	}
	for _, c := range []struct {
		name      string
		src       string
		overlap   bool
		scheduled int64 // -1: the pass did not run
	}{
		{"cold", src, true, 33},
		{"resubmit", src, true, 0},
		{"constant", constant, true, 2},
		{"blocking", constant, false, -1},
		{"overlap again", constant, true, 0},
		{"tagged", taggedSrc, true, 6},
		{"tag shift", shifted, true, 6}, // MAIN, whose callee changed, and jac1 and every unit after it
	} {
		warm, scheduled := compile(c.src, c.overlap, cache)
		if cold, _ := compile(c.src, c.overlap, nil); warm != cold {
			t.Errorf("%s: the warm compile differs from a cold one:\n%s\n--- cold\n%s", c.name, warm, cold)
		}
		if scheduled != c.scheduled {
			t.Errorf("%s: %d units scheduled, want %d", c.name, scheduled, c.scheduled)
		}
	}
}

// TestWarmListingPrintsNothing: a listing joins the text the cache keeps
// of each unit, printed by the first listing that showed the unit, so a
// warm resubmit's listing is ast.Print's, byte for byte, and costs the
// join alone.
func TestWarmListingPrintsNothing(t *testing.T) {
	src := SyntheticProcsSrc(32, 8, 32, 4)
	opts := DefaultOptions()
	opts.Cache = NewSummaryCache()
	var prog *Program
	for i := 0; i < 2; i++ {
		var err error
		if prog, err = Compile(src, opts); err != nil {
			t.Fatal(err)
		}
		if prog.Listing() != ast.Print(prog.c.Program) {
			t.Fatalf("compile %d: the listing is not the program's print", i)
		}
	}
	if allocs := testing.AllocsPerRun(5, func() { prog.Listing() }); allocs > 2 {
		t.Errorf("a warm listing allocates %.0f objects, want at most 2", allocs)
	}
}
