package fortd

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"fortd/internal/ast"
	"fortd/internal/core"
	"fortd/internal/explain"
	"fortd/internal/parser"
	"fortd/internal/progen"
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

// TestEditAnalyzesOnlyItsUnits: the local pass of each whole-program
// phase runs once per unit the cache parsed (the local-units-analyzed
// counter). The 33-unit program analyzes every unit cold, none on a
// resubmit and the one unit a one-constant edit of s7 re-parses; fig4
// analyzes all five units of its compiled program on every compile:
// they are its clones and the caller renamed to call them, new units
// each time; and a compile without a cache analyzes every unit.
func TestEditAnalyzesOnlyItsUnits(t *testing.T) {
	src := SyntheticProcsSrc(32, 8, 32, 4)
	constant := editUnit(src, 7, func(u string) string { return strings.Replace(u, ".0\n", ".5\n", 1) })
	fig4, err := os.ReadFile(filepath.Join("testdata", "fig4.f"))
	if err != nil {
		t.Fatal(err)
	}
	cache := summarycache.New()
	for _, c := range []struct {
		name     string
		src      string
		cache    *summarycache.Cache
		analyzed int64
	}{
		{"cold", src, cache, 33},
		{"resubmit", src, cache, 0},
		{"constant", constant, cache, 1},
		{"no cache", constant, nil, 33},
		{"fig4 cold", string(fig4), cache, 5},
		{"fig4 resubmit", string(fig4), cache, 5}, // F1$row, F1$col, F2$row, F2$col and P1 renamed
	} {
		opts := core.DefaultOptions()
		opts.Cache, opts.Trace = c.cache, trace.New()
		if _, err := core.Compile(c.src, opts); err != nil {
			t.Fatal(err)
		}
		if got := counter(opts.Trace, "local-units-analyzed"); got != c.analyzed {
			t.Errorf("%s: %d units analyzed, want %d", c.name, got, c.analyzed)
		}
	}
}

// TestWarmCompileEqualsCold: a warm compile takes each unit's local facts
// from the cache, and nothing downstream may tell. For every testdata
// program and 20 generated ones, compiles on one cache — the program,
// the program again, a one-unit edit of it and the program once more —
// each give what a compile without a cache gives: the listing, every
// remark with its position, the interfaces, the overlap estimates, the
// reaching decompositions and the call sites' reaching sets.
func TestWarmCompileEqualsCold(t *testing.T) {
	var srcs []string
	err := filepath.WalkDir("testdata", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".f" {
			return err
		}
		b, err := os.ReadFile(path)
		srcs = append(srcs, string(b))
		return err
	})
	if err != nil || len(srcs) < 50 {
		t.Fatalf("testdata: %d programs, %v", len(srcs), err)
	}
	for seed := int64(1); seed <= 20; seed++ {
		g := &progen.Gen{Rng: rand.New(rand.NewSource(seed)), N: 24 + int(seed%3)*8, P: []int{3, 4, 6}[seed%3], Temps: seed%2 == 0}
		srcs = append(srcs, g.Generate())
	}
	outcome := func(src string, cache *summarycache.Cache) string {
		opts := core.DefaultOptions()
		opts.Cache, opts.Explain = cache, explain.New()
		c, err := core.Compile(src, opts)
		if err != nil {
			return "error: " + err.Error()
		}
		var b strings.Builder
		b.WriteString(ast.Print(c.Program))
		for _, r := range opts.Explain.Remarks() {
			b.WriteString(r.String() + "\n")
		}
		var facts []string
		for proc, iface := range c.Interfaces {
			facts = append(facts, "interface "+proc+": "+strings.ReplaceAll(iface, "\n", "; "))
		}
		for proc, est := range c.Overlaps.Estimates {
			for arr, offs := range est {
				facts = append(facts, "overlap "+proc+" "+arr+offs.String())
			}
		}
		for proc, reaching := range c.Reach.Reaching {
			for v, set := range reaching {
				facts = append(facts, "reaching "+proc+" "+v+"="+set.String())
			}
		}
		for call, local := range c.Reach.Sites {
			for v, set := range local {
				facts = append(facts, fmt.Sprintf("site %s line %d %s=%s", call.Name, call.Pos().Line, v, set))
			}
		}
		slices.Sort(facts)
		b.WriteString(strings.Join(facts, "\n"))
		return b.String()
	}
	header := regexp.MustCompile(`(?m)^ +(PROGRAM|SUBROUTINE)\b.*\n`)
	for i, src := range srcs {
		// the last unit gains a local array it reads one element up,
		// which moves no other unit's lines and shows in its estimates
		at := header.FindAllStringIndex(src, -1)
		decl, end := at[len(at)-1][1], strings.LastIndex(src, "      END")
		edited := src[:decl] + "      REAL xedit(8)\n" + src[decl:end] +
			"      do iedit = 1, 7\n        xedit(iedit) = xedit(iedit+1)\n      enddo\n" + src[end:]
		cold, coldEdited := outcome(src, nil), outcome(edited, nil)
		cache := summarycache.New()
		for j, c := range []struct{ src, want string }{{src, cold}, {src, cold}, {edited, coldEdited}, {src, cold}} {
			if got := outcome(c.src, cache); got != c.want {
				t.Errorf("program %d, compile %d on the cache differs from a compile without one:\n%s\n--- without\n%s", i, j, got, c.want)
			}
		}
	}
}
