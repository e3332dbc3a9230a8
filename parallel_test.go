package fortd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"fortd/internal/ast"
	"fortd/internal/core"
	"fortd/internal/parser"
	"fortd/internal/summarycache"
)

// explainBytes renders an Explain report to a string.
func explainBytes(t *testing.T, ex *Explain) string {
	t.Helper()
	var buf bytes.Buffer
	if err := ex.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// compileWith compiles src and returns the program plus its explain
// report text.
func compileWith(t *testing.T, src string, opts Options) (*Program, string) {
	t.Helper()
	ex := NewExplain()
	opts.Explain = ex
	prog, err := Compile(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	return prog, explainBytes(t, ex)
}

// TestParallelCompileDeterministic asserts the tentpole determinism
// contract: for every workload, compiling with Jobs=N on the worker
// pool produces byte-identical listings, reports and optimization
// remarks to the sequential compile — scheduling must never leak into
// the output.
func TestParallelCompileDeterministic(t *testing.T) {
	workloads := []struct {
		name string
		src  string
	}{
		{"jacobi", Jacobi2DSrc(16, 3, 4)},
		{"dgefa", DgefaSrc(32, 4)},
		{"dyndist", Fig15Src(25, 4)},
		{"synthetic", SyntheticProcsSrc(9, 3, 64, 4)},
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			seq, seqReport := compileWith(t, w.src, DefaultOptions())
			for _, jobs := range []int{2, 8} {
				opts := DefaultOptions()
				opts.Jobs = jobs
				par, parReport := compileWith(t, w.src, opts)
				if got, want := par.Listing(), seq.Listing(); got != want {
					t.Errorf("jobs=%d listing differs from sequential", jobs)
				}
				if got, want := par.Report().String(), seq.Report().String(); got != want {
					t.Errorf("jobs=%d report %q != sequential %q", jobs, got, want)
				}
				if parReport != seqReport {
					t.Errorf("jobs=%d explain report differs from sequential:\n--- jobs=%d ---\n%s--- sequential ---\n%s",
						jobs, jobs, parReport, seqReport)
				}
			}
		})
	}
}

// editDaxpyBody is DgefaSrc(32, 4) with one statement inside daxpy
// edited (an extra scale factor). The edit changes daxpy's source but
// not the summary it exposes to callers, so the invalidation cone is
// exactly {daxpy}.
func editDaxpyBody() string {
	src := DgefaSrc(32, 4)
	edited := strings.Replace(src,
		"a(i,j) = a(i,j) - a(i,k) * a(k,j)",
		"a(i,j) = a(i,j) - 2.0 * a(i,k) * a(k,j)", 1)
	if edited == src {
		panic("edit did not apply")
	}
	return edited
}

// TestSummaryCacheWarmRecompile locks the §8 recompilation behavior,
// run as a cache: a warm recompile of the identical program re-analyzes
// nothing and reproduces the cold outputs byte for byte, and a
// recompile after editing one procedure's body re-analyzes only that
// procedure's invalidation cone.
func TestSummaryCacheWarmRecompile(t *testing.T) {
	src := DgefaSrc(32, 4)
	cache := NewSummaryCache()
	opts := DefaultOptions()
	opts.Cache = cache

	cold, coldReport := compileWith(t, src, opts)
	if len(cold.CacheHits()) != 0 {
		t.Fatalf("cold compile hit %v", cold.CacheHits())
	}
	wantMisses := []string{"MAIN", "daxpy", "dgefa", "dscal", "idamax"}
	if got := fmt.Sprint(cold.CacheMisses()); got != fmt.Sprint(wantMisses) {
		t.Fatalf("cold misses %v, want %v", cold.CacheMisses(), wantMisses)
	}

	warm, warmReport := compileWith(t, src, opts)
	if len(warm.CacheMisses()) != 0 {
		t.Fatalf("warm compile re-analyzed %v", warm.CacheMisses())
	}
	if got := fmt.Sprint(warm.CacheHits()); got != fmt.Sprint(wantMisses) {
		t.Fatalf("warm hits %v, want %v", warm.CacheHits(), wantMisses)
	}
	if warm.Listing() != cold.Listing() {
		t.Error("warm listing differs from cold")
	}
	if warmReport != coldReport {
		t.Errorf("warm explain report differs from cold:\n--- warm ---\n%s--- cold ---\n%s", warmReport, coldReport)
	}
	if warm.Report().String() != cold.Report().String() {
		t.Errorf("warm report %q != cold %q", warm.Report().String(), cold.Report().String())
	}

	// body-only edit: daxpy's key changes, but its caller-visible
	// summary does not, so nothing else is invalidated
	edited, _ := compileWith(t, editDaxpyBody(), opts)
	if got := fmt.Sprint(edited.CacheMisses()); got != fmt.Sprint([]string{"daxpy"}) {
		t.Errorf("edited compile re-analyzed %v, want [daxpy]", edited.CacheMisses())
	}
	if got := fmt.Sprint(edited.CacheHits()); got != fmt.Sprint([]string{"MAIN", "dgefa", "dscal", "idamax"}) {
		t.Errorf("edited compile hits %v", edited.CacheHits())
	}
	// the cache-assembled program must equal an uncached compile of the
	// edited source
	fresh, _ := compileWith(t, editDaxpyBody(), DefaultOptions())
	if edited.Listing() != fresh.Listing() {
		t.Error("cache-assembled listing differs from a fresh compile of the edited source")
	}

	stats := cache.Stats()
	if stats.Hits == 0 || stats.Misses == 0 || stats.Entries == 0 {
		t.Errorf("implausible cache stats %+v", stats)
	}
}

// TestSummaryCacheCoversCalleeScalarEffects: dgefa's partition computes
// t on the owner of column k only because no callee may assign t. That
// is something it consumes from dscal, so editing dscal to assign t — as
// the index of a loop that runs once and leaves t as it was, an edit
// that leaves dscal's delayed constraint, communication and sections as
// they were — must miss dgefa, which then keeps t replicated.
func TestSummaryCacheCoversCalleeScalarEffects(t *testing.T) {
	src := DgefaSrc(16, 4)
	edited := strings.Replace(src, "      do i = k+1, n\n        a(i,k) = a(i,k) * t\n      enddo\n",
		"      do t = t, t\n      do i = k+1, n\n        a(i,k) = a(i,k) * t\n      enddo\n      enddo\n", 1)
	if edited == src {
		t.Fatal("edit did not apply")
	}
	opts := DefaultOptions()
	opts.Cache = NewSummaryCache()
	cold, coldReport := compileWith(t, src, opts)
	ownerOfK := []string{"(MOD((k - 1),4) .EQ. my$p)"}
	if !strings.Contains(coldReport, "t computed by the owner of column k only") ||
		!slices.Equal(guardsOfT(t, cold), ownerOfK) {
		t.Fatalf("base program does not guard t:\n%s%s", cold.Listing(), coldReport)
	}
	prog, report := compileWith(t, edited, opts)
	// daxpy follows dscal in the text, so its lines moved; dgefa precedes it
	if got := fmt.Sprint(prog.CacheMisses()); got != "[daxpy dgefa dscal]" {
		t.Errorf("edited compile re-analyzed %v, want [daxpy dgefa dscal]", got)
	}
	if !strings.Contains(report, "t stays replicated: "+"a callee may assign it") {
		t.Errorf("no Missed remark for t:\n%s", report)
	}
	if got := guardsOfT(t, prog); len(got) != 0 {
		t.Errorf("t is still guarded by %q:\n%s", got, prog.Listing())
	}
	fresh, _ := compileWith(t, edited, DefaultOptions())
	if prog.Listing() != fresh.Listing() {
		t.Error("cache-assembled listing differs from a fresh compile of the edited source")
	}
	r := NewRunner(WithInit(map[string][]float64{"a": DgefaMatrix(16)}))
	res, err := r.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := r.RunReference(prog)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(res.Arrays["a"], ref.Arrays["a"]); d > 1e-9 {
		t.Errorf("edited program differs from the sequential reference by %g", d)
	}
}

// guardsOfT returns the conditions of the IFs around the one assignment
// to t in prog's dgefa, outermost first.
func guardsOfT(t *testing.T, prog *Program) (around []string) {
	t.Helper()
	found := 0
	var walk func([]ast.Stmt, []string)
	walk = func(list []ast.Stmt, in []string) {
		for _, s := range list {
			switch st := s.(type) {
			case *ast.Assign:
				if ast.ExprEqual(st.Lhs, ast.Id("t")) {
					around, found = in, found+1
				}
			case *ast.Do:
				walk(st.Body, in)
			case *ast.If:
				walk(st.Then, append(slices.Clip(in), st.Cond.String()))
				walk(st.Else, append(slices.Clip(in), ".NOT. "+st.Cond.String()))
			}
		}
	}
	walk(prog.c.Program.Proc("dgefa").Body, nil)
	if found != 1 {
		t.Fatalf("%d assignments to t in dgefa, want 1:\n%s", found, prog.Listing())
	}
	return around
}

// TestWarmReportIsItsOwn: a report's per-procedure counters are its
// compilation's own, never a cache entry's. Writing them after the cold
// compile that stored the entries and after a warm one that hit them
// changes nothing a third compile reports, and that compile hits every
// entry, so the entries' counters are unchanged too.
func TestWarmReportIsItsOwn(t *testing.T) {
	src := DgefaSrc(16, 4)
	opts := DefaultOptions()
	opts.Cache = NewSummaryCache()
	snapshot := func(rep Report) string {
		per := map[string]string{}
		for name, r := range rep.PerProc {
			per[name] = fmt.Sprintf("%+v", *r)
		}
		return fmt.Sprintf("%s %v", rep, per)
	}
	var want string
	for i := 0; i < 3; i++ {
		prog, err := Compile(src, opts)
		if err != nil {
			t.Fatal(err)
		}
		rep := prog.Report()
		if i == 0 {
			want = snapshot(rep)
		} else if len(prog.CacheMisses()) != 0 {
			t.Fatalf("compile %d re-analyzed %v", i+1, prog.CacheMisses())
		}
		if got := snapshot(rep); got != want {
			t.Fatalf("compile %d reports\n%s\nwant\n%s", i+1, got, want)
		}
		for _, r := range rep.PerProc {
			r.MessagesInserted += 100
			r.GuardsInserted += 100
			r.LoopsReduced += 100
		}
	}
}

// TestDiskCacheOldFormatMisses: an entry file written under an earlier
// disk format (format 4 kept a leaf procedure under the key it still
// has, with the overlap actuals entries no longer carry) is a miss, not
// an error and not a resurrected listing.
func TestDiskCacheOldFormatMisses(t *testing.T) {
	dir := t.TempDir()
	src := DgefaSrc(16, 4)
	cold, err := Compile(src, Options{Cache: mustDisk(NewDiskSummaryCache(dir))})
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 5 {
		t.Fatalf("entry files: %v %v", files, err)
	}
	for _, f := range files {
		buf, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		old := bytes.Replace(buf, []byte(`"Format":5`), []byte(`"Format":4`), 1)
		if bytes.Equal(old, buf) {
			t.Fatalf("%s does not record format 5", f)
		}
		if err := os.WriteFile(f, old, 0644); err != nil {
			t.Fatal(err)
		}
	}
	again, err := Compile(src, Options{Cache: mustDisk(NewDiskSummaryCache(dir))})
	if err != nil {
		t.Fatal(err)
	}
	if len(again.CacheHits()) != 0 || len(again.CacheMisses()) != 5 {
		t.Errorf("format-4 entries: hits %v misses %v", again.CacheHits(), again.CacheMisses())
	}
	if again.Listing() != cold.Listing() {
		t.Error("listing differs after the old-format entries were ignored")
	}
}

// TestDiskCacheLoadsFormat5KeyOrder: entry files whose keys come in the
// order format 5 first wrote them (the unit's source after Key and
// Proc) are hits, and the warm listing is the cold one to the byte.
func TestDiskCacheLoadsFormat5KeyOrder(t *testing.T) {
	dir := t.TempDir()
	src := DgefaSrc(16, 4)
	cold, err := Compile(src, Options{Cache: mustDisk(NewDiskSummaryCache(dir))})
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 5 {
		t.Fatalf("entry files: %v %v", files, err)
	}
	order := []string{"Format", "Key", "Proc", "UnitSrc", "Result", "PartDelayed", "CommDelayed", "DecompSum", "MainDists", "Remarks", "Runtime"}
	for _, f := range files {
		buf, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var top map[string]json.RawMessage
		if err := json.Unmarshal(buf, &top); err != nil || len(top) != len(order) {
			t.Fatalf("%s: %d keys (%v), want %v", f, len(top), err, order)
		}
		parts := make([]string, len(order))
		for i, k := range order {
			parts[i] = fmt.Sprintf("%q:%s", k, top[k])
		}
		if err := os.WriteFile(f, []byte("{"+strings.Join(parts, ",")+"}"), 0644); err != nil {
			t.Fatal(err)
		}
	}
	warm, err := Compile(src, Options{Cache: mustDisk(NewDiskSummaryCache(dir))})
	if err != nil {
		t.Fatal(err)
	}
	if len(warm.CacheHits()) != 5 || len(warm.CacheMisses()) != 0 {
		t.Errorf("format-5 key order: hits %v misses %v", warm.CacheHits(), warm.CacheMisses())
	}
	if warm.Listing() != cold.Listing() {
		t.Error("listing differs after loading entries in format 5's key order")
	}
}

// sec8Src is the program of EXPERIMENTS.md's §8 table (and of
// `fdpaper -exp recompile`): P calls S1(A) and S2(B).
const sec8Src = `
      PROGRAM P
      PARAMETER (n$proc = 4)
      REAL A(100), B(100)
      DISTRIBUTE A(BLOCK)
      DISTRIBUTE B(BLOCK)
      call S1(A)
      call S2(B)
      END
      SUBROUTINE S1(X)
      REAL X(100)
      do i = 1,100
        X(i) = X(i) + 1.0
      enddo
      END
      SUBROUTINE S2(X)
      REAL X(100)
      do i = 1,100
        X(i) = X(i) * 2.0
      enddo
      END
`

// sec8Edit applies one textual edit to sec8Src.
func sec8Edit(old, new string) string {
	edited := strings.Replace(sec8Src, old, new, 1)
	if edited == sec8Src {
		panic("edit did not apply: " + old)
	}
	return edited
}

// The three edits of sec8Src that EXPERIMENTS.md's table and
// TestRecompilationScenarios share: a constant in S2's body, a
// DISTRIBUTE inside S2, the caller's DISTRIBUTE for A.
var (
	sec8BodyEdit      = sec8Edit("X(i) * 2.0", "X(i) * 3.0")
	sec8InterfaceEdit = sec8Edit("      SUBROUTINE S2(X)\n      REAL X(100)", "      SUBROUTINE S2(X)\n      REAL X(100)\n      DISTRIBUTE X(CYCLIC)")
	sec8DistEdit      = sec8Edit("DISTRIBUTE A(BLOCK)", "DISTRIBUTE A(CYCLIC)")
)

// recompileCone compiles base into a fresh summary cache, then edited
// against it, and returns what the second compile re-analyzed and what
// it reused: the §8 recompilation decision.
func recompileCone(t *testing.T, base, edited string) (reanalyzed, reused []string) {
	t.Helper()
	opts := DefaultOptions()
	opts.Cache = NewSummaryCache()
	if _, err := Compile(base, opts); err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(edited, opts)
	if err != nil {
		t.Fatal(err)
	}
	return prog.CacheMisses(), prog.CacheHits()
}

// TestRecompilationScenarios holds the five §8 decisions on the
// three-procedure program: an edit re-analyzes the procedures whose own
// text or consumed interprocedural information changed, and no other.
func TestRecompilationScenarios(t *testing.T) {
	// the caller edit changes a statement in place: one that moved the
	// callees' lines would re-analyze them too, because the key covers
	// the statement positions cached remarks carry
	withStmt := sec8Edit("      call S1(A)", "      x = 41\n      call S1(A)")
	for _, sc := range []struct {
		name, why, base, src string
		reanalyzed, reused   []string
	}{
		{"no-edit", "recompiling identical source is no work at all",
			sec8Src, sec8Src, nil, []string{"P", "S1", "S2"}},
		{"body-edit", "a constant inside S2's body leaves its interface alone: S1 and P are reused",
			sec8Src, sec8BodyEdit, []string{"S2"}, []string{"P", "S1"}},
		{"interface-edit", "a DISTRIBUTE inside S2 changes its decomposition summary, which the caller consumes; S1 is not needlessly redone",
			sec8Src, sec8InterfaceEdit, []string{"P", "S2"}, []string{"S1"}},
		{"caller-edit", "the caller's own statement changed and the same decompositions reach the call sites: the callees stay",
			withStmt, strings.Replace(withStmt, "x = 41", "x = 42", 1), []string{"P"}, []string{"S1", "S2"}},
		{"distribution-change", "the caller's DISTRIBUTE for A changes the decomposition reaching S1, whose text is untouched; its sibling S2 is never touched",
			sec8Src, sec8DistEdit, []string{"P", "S1"}, []string{"S2"}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			reanalyzed, reused := recompileCone(t, sc.base, sc.src)
			if fmt.Sprint(reanalyzed) != fmt.Sprint(sc.reanalyzed) || fmt.Sprint(reused) != fmt.Sprint(sc.reused) {
				t.Errorf("re-analyzed %v reused %v, want %v and %v (%s)",
					reanalyzed, reused, sc.reanalyzed, sc.reused, sc.why)
			}
		})
	}
}

// TestGoldenRecompilationDecisions locks the §8 recompilation decisions
// as a golden file: for three edits of the dgefa case study and for the
// four scenarios of EXPERIMENTS.md's §8 table it records what the
// summary cache re-analyzes and what it reuses. The cache key is the §8
// test (DESIGN.md "One interface rendering, one predicate"), so this is
// the recompile set itself, not a second opinion on it.
func TestGoldenRecompilationDecisions(t *testing.T) {
	dgefa := DgefaSrc(32, 4)
	scenarios := []struct {
		name      string
		base, src string
	}{
		{"unchanged", dgefa, dgefa},
		{"daxpy-body-edit", dgefa, editDaxpyBody()},
		{"dscal-interface-edit", dgefa, strings.Replace(dgefa,
			"a(i,k) = a(i,k) * t",
			"a(i,k) = a(i,k-1) * t", 1)},
		{"sec8-no-edit", sec8Src, sec8Src},
		{"sec8-S2-body-edit", sec8Src, sec8BodyEdit},
		{"sec8-S2-redistributes-X", sec8Src, sec8InterfaceEdit},
		{"sec8-caller-changes-A-distribution", sec8Src, sec8DistEdit},
	}

	var buf bytes.Buffer
	for _, sc := range scenarios {
		misses, hits := recompileCone(t, sc.base, sc.src)
		fmt.Fprintf(&buf, "scenario %s\n", sc.name)
		fmt.Fprintf(&buf, "  cache reanalyzed: %v\n", misses)
		fmt.Fprintf(&buf, "  cache reused:     %v\n", hits)
	}

	path := filepath.Join("testdata", "golden", "dgefa_recompile.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestGolden -update` to create)", err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("recompilation decisions differ from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// BenchmarkCompileParallel compares sequential against pooled phase-3
// code generation on a wide synthetic program (16 independent
// procedures): jobs=1 is the paper's reverse-topological walk, jobs=N
// schedules the same waves over N workers. On a multi-core machine the
// jobs=N lane should run the 16 leaf procedures concurrently; both
// lanes produce byte-identical output (TestParallelCompileDeterministic).
func BenchmarkCompileParallel(b *testing.B) {
	src := SyntheticProcsSrc(16, 16, 256, 4)
	for _, jobs := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			opts := DefaultOptions()
			opts.Jobs = jobs
			for i := 0; i < b.N; i++ {
				if _, err := Compile(src, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompileWarmCache measures what the summary cache saves on a
// recompile with nothing edited (every procedure hits).
func BenchmarkCompileWarmCache(b *testing.B) {
	src := SyntheticProcsSrc(16, 16, 256, 4)
	opts := DefaultOptions()
	opts.Cache = NewSummaryCache()
	if _, err := Compile(src, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(src, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// widenedSrc is a program whose overlap estimates widen both ways: MAIN
// reads a one element up and lo reads x, bound to a, two elements down,
// so propagation widens MAIN's a and lo's x past their local offsets.
const widenedSrc = `      PROGRAM MAIN
      PARAMETER (n$proc = 4)
      REAL a(64), b(64)
      DISTRIBUTE a(BLOCK)
      DISTRIBUTE b(BLOCK)
      do i = 1, 63
        b(i) = a(i+1)
      enddo
      call lo(a, b)
      END
      SUBROUTINE lo(x, y)
      REAL x(64), y(64)
      do i = 3, 64
        y(i) = x(i-2)
      enddo
      END
`

// TestCachedUnitsAreNeverWritten: a hit splices the cache entry's unit
// into the program as stored, and nothing downstream — cloning, the
// schedule pass — writes it or the input program. Two compiles share
// one warm cache concurrently, with the schedule pass on (ci.sh runs
// this under -race), once from programs parsed apart and once from
// source text, which shares the source units the cache memoized; every
// input, every memoized source unit and every cached unit prints as it
// did before, and so does every unit the cache keeps as a schedule, and
// the text it keeps of each is that print; and the local facts it keeps
// of each memoized unit print as the unit's local pass computes them.
// The sources clone (fig4), pipeline a pivot broadcast (dgefa), split
// halos (jacobi2d), split chains of pipelined loops and widen overlap
// estimates (widenedSrc).
func TestCachedUnitsAreNeverWritten(t *testing.T) {
	var srcs []string
	for _, name := range []string{"fig4.f", "dgefa.f", "jacobi2d.f"} {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, string(b))
	}
	srcs = append(srcs, SyntheticProcsSrc(8, 8, 32, 4), widenedSrc)
	opts := core.DefaultOptions()
	opts.Cache, opts.Jobs = summarycache.New(), 8
	blocking := opts
	blocking.Overlap = false
	// with the schedule pass off, a program's units are the entries its
	// compile stored, and a warm compile's are the same pointers
	var stored, scheduled []*ast.Procedure
	var sources [][]*ast.Procedure // each source's units, as memoized
	for _, src := range srcs {
		for i := 0; i < 3; i++ {
			o := blocking
			if i == 2 { // with the schedule pass on: the schedules it keeps
				o = opts
			}
			c, err := core.Compile(src, o)
			if err != nil {
				t.Fatal(err)
			}
			if i == 2 {
				opts.Cache.Listing(c.Program) // which keeps the texts
				scheduled = append(scheduled, c.Program.Units...)
				continue
			}
			if i == 0 {
				stored = append(stored, c.Program.Units...)
				sources = append(sources, c.Source.Units)
				continue
			}
			for j, u := range c.Program.Units {
				if u != stored[len(stored)-len(c.Program.Units)+j] {
					t.Fatalf("warm compile of %s copied the cached unit instead of splicing it", u.Name)
				}
			}
		}
	}
	printAll := func(progs ...*ast.Program) []string {
		var out []string
		for _, p := range progs {
			out = append(out, ast.Print(p))
		}
		return out
	}
	memoized := ast.NewProgram(slices.Concat(sources...))
	cached := printAll(ast.NewProgram(stored), memoized, ast.NewProgram(scheduled))
	// the local facts the cache keeps of each memoized unit, or (with a
	// nil cache) those the local pass computes afresh: the propagation
	// that reads them copies what it widens
	printLocals := func(cache *summarycache.Cache) []string {
		var out []string
		for _, u := range memoized.Units {
			l, _ := cache.Local(u)
			mod, ref := l.Effects.Mod.Members(), l.Effects.Ref.Members()
			slices.Sort(mod)
			slices.Sort(ref)
			var offs []string
			for arr, o := range l.Offsets {
				offs = append(offs, arr+o.String())
			}
			slices.Sort(offs)
			out = append(out, fmt.Sprintf("%s: mod %v ref %v comm %v sections %s offsets %v",
				u.Name, mod, ref, l.Effects.Comm, l.Sections.Key(), offs))
		}
		return out
	}
	var inputs [2][]*ast.Program
	var before [2][]string
	for w := range inputs {
		for _, src := range srcs {
			prog, err := parser.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			inputs[w] = append(inputs[w], prog)
		}
		before[w] = printAll(inputs[w]...)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(inputs))
	for w := range inputs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, prog := range inputs[w] {
				c, err := core.CompileProgram(prog, opts)
				if err == nil && len(c.CacheMisses) == 0 {
					c, err = core.Compile(srcs[i], opts)
				}
				if err == nil && len(c.CacheMisses) > 0 {
					err = fmt.Errorf("warm compile missed %v", c.CacheMisses)
				}
				if err == nil && !slices.Equal(c.Source.Units, sources[i]) {
					err = fmt.Errorf("compiling source %d parsed units the cache had memoized", i)
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := range inputs {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		for i, after := range printAll(inputs[w]...) {
			if after != before[w][i] {
				t.Errorf("compiling input %d of worker %d changed it:\n%s\n--- now\n%s", i, w, before[w][i], after)
			}
		}
	}
	for i, after := range printAll(ast.NewProgram(stored), memoized, ast.NewProgram(scheduled)) {
		if after != cached[i] {
			t.Errorf("the cached units (%d) changed:\n%s\n--- now\n%s", i, cached[i], after)
		}
	}
	fresh := printLocals(nil)
	for i, kept := range printLocals(opts.Cache) {
		if kept != fresh[i] {
			t.Errorf("the local facts the cache keeps of a unit changed:\n%s\n--- the unit's\n%s", kept, fresh[i])
		}
	}
	for _, u := range slices.Concat(stored, scheduled) {
		if text, want := opts.Cache.Listing(ast.NewProgram([]*ast.Procedure{u})), string(ast.AppendProcedure(nil, u)); text != want {
			t.Errorf("the cache keeps the text of %s as\n%s\n--- it prints\n%s", u.Name, text, want)
		}
	}
}

// TestParallelCompileSpeedup measures the wall-clock benefit of the
// phase-3 worker pool on a wide synthetic program. It is a smoke guard,
// not a benchmark — BenchmarkCompileParallel gives real numbers.
func TestParallelCompileSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skip("needs >= 4 CPUs")
	}
	src := SyntheticProcsSrc(16, 16, 256, 4)
	compileOnce := func(jobs int) time.Duration {
		opts := DefaultOptions()
		opts.Jobs = jobs
		start := time.Now()
		if _, err := Compile(src, opts); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	best := func(jobs int) time.Duration {
		b := compileOnce(jobs) // warm-up + first sample
		for i := 0; i < 4; i++ {
			if d := compileOnce(jobs); d < b {
				b = d
			}
		}
		return b
	}
	seq := best(1)
	par := best(runtime.GOMAXPROCS(0))
	speedup := float64(seq) / float64(par)
	t.Logf("sequential %v, parallel %v, speedup %.2fx", seq, par, speedup)
	if speedup < 1.2 {
		t.Errorf("parallel compile speedup %.2fx < 1.2x (seq %v, par %v)", speedup, seq, par)
	}
}
