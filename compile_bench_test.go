package fortd

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"fortd/internal/ast"
	"fortd/internal/parser"
	"fortd/internal/sched"
)

// BenchmarkCompileSynth256 is one cold sequential compile of the
// benchmark's compile_synth256 program (257 procedures, 200 KB): the
// whole-compiler number behind the per-layer ones of `make
// bench-compile`. Read B/op and allocs/op with -benchmem.
func BenchmarkCompileSynth256(b *testing.B) {
	src := SyntheticProcsSrc(256, 8, 32, 4)
	opts := DefaultOptions()
	opts.Jobs = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(src, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceEditCompile is what svc_recompile's compile_s times:
// Service.Compile, listing included, of one-constant edits of its
// 33-unit program against a service whose cache holds the base program.
// Each iteration edits to a constant no earlier one used, so each
// compiles and schedules its subroutine and MAIN afresh.
func BenchmarkServiceEditCompile(b *testing.B) {
	src := SyntheticProcsSrc(32, 8, 32, 4)
	svc, err := NewService(ServiceConfig{Options: DefaultOptions(), Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	opts := DefaultOptions()
	opts.Jobs = 1
	compile := func(src string) {
		if _, err := svc.Compile(context.Background(), CompileRequest{Source: src, Options: opts}); err != nil {
			b.Fatal(err)
		}
	}
	compile(src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compile(strings.Replace(src, "+ 9.0\n", fmt.Sprintf("+ %d.0\n", 1000+i), 1))
	}
}

// BenchmarkServiceEditRun is svc_recompile's request pair: Service.Compile
// of a one-constant edit, as BenchmarkServiceEditCompile, and then
// Service.Run of the edited program, whose first run lowers its plan: the
// edited subroutine's code, the other 32 units' from the service's cache,
// and the link of all 33.
func BenchmarkServiceEditRun(b *testing.B) {
	src := SyntheticProcsSrc(32, 8, 32, 4)
	svc, err := NewService(ServiceConfig{Options: DefaultOptions(), Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	opts := DefaultOptions()
	opts.Jobs = 1
	init := RampInit(src)
	editRun := func(src string) {
		cres, err := svc.Compile(context.Background(), CompileRequest{Source: src, Options: opts})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := svc.Run(context.Background(), RunRequest{ID: cres.ID, Init: init}); err != nil {
			b.Fatal(err)
		}
	}
	editRun(src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		editRun(strings.Replace(src, "+ 9.0\n", fmt.Sprintf("+ %d.0\n", 1000+i), 1))
	}
}

// TestEditRunAllocBudget bounds the bytes that the first Service.Run of
// a one-constant edit allocates, after the service compiled and ran the
// base program: the run itself (a repeat run's bytes) and the plan, which
// lowers the edited subroutine and links the 32 units it takes from the
// cache. The budget is the bytes measured when it was last set plus 30 %.
func TestEditRunAllocBudget(t *testing.T) {
	const budget = 198500 // 152 692 measured under ci.sh's -race (136 552 without; 1 317 654 while a first run lowered every unit) + 30 %
	src := SyntheticProcsSrc(32, 8, 32, 4)
	svc, err := NewService(ServiceConfig{Options: DefaultOptions(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	opts := DefaultOptions()
	opts.Jobs = 1
	init := RampInit(src)
	editRun := func(src string) uint64 {
		cres, err := svc.Compile(context.Background(), CompileRequest{Source: src, Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := svc.Run(context.Background(), RunRequest{ID: cres.ID, Init: init}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	editRun(src)
	const runs = 5
	var total uint64
	for i := 0; i < runs; i++ {
		total += editRun(strings.Replace(src, "+ 9.0\n", fmt.Sprintf("+ %d.0\n", 1000+i), 1))
	}
	bytes := total / runs
	t.Logf("the first run of an edited program allocates %d bytes (budget %d)", bytes, budget)
	if bytes > budget {
		t.Errorf("the first run of an edited program allocates %d bytes, budget %d", bytes, budget)
	}
}

// BenchmarkSchedApply times the overlap schedule pass alone on the
// generated compile_synth256 program. Apply writes no unit it was given,
// only the program's unit list, so every iteration reschedules a new
// program over the same parsed units.
func BenchmarkSchedApply(b *testing.B) {
	p, err := Compile(SyntheticProcsSrc(256, 8, 32, 4), DefaultOptions().WithOverlap(false))
	if err != nil {
		b.Fatal(err)
	}
	blocking, err := parser.Parse(p.Listing())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// every procedure's eight sweeps are one chain of pipelined
		// loops: seven sites of the early-shift rule each
		sched.Apply(ast.NewProgram(slices.Clone(blocking.Units)), nil)
	}
}

// TestCompileAllocBudget fails when a cold sequential compile of a
// 33-procedure program allocates more than the budget: the compiler's
// host cost is mostly allocation (45 % of its CPU was the allocator and
// the collector before PR 14), so a layer that goes back to building
// maps or strings per reference shows up here, without a timer. The
// budget is the count measured when it was last set plus 10 %; lower it
// when a change lowers the count.
func TestCompileAllocBudget(t *testing.T) {
	const budget = 62082 // 56 438 measured once reach walked a body without a directive once (57 898 once depend kept sink levels instead of a pair list and procDists, livedecomp and emitShift stopped building what nobody read (71 932 once reach skipped the walk of a unit without a CALL and the local pass of each phase was split from its propagation, 75 321 before, 75 353 before the early-shift rule wrote its list once, 78 746 before reach shared its decomposition sets, 91 592 before the compiler stopped copying its input)) + 10 %
	src := SyntheticProcsSrc(32, 8, 32, 4)
	opts := DefaultOptions()
	opts.Jobs = 1
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Compile(src, opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per compile (budget %d)", allocs, budget)
	if allocs > budget {
		t.Errorf("compile allocates %.0f objects, budget %d", allocs, budget)
	}
}

// TestCompileBytesBudget is TestCompileAllocBudget's byte count: the
// mean TotalAlloc of the same cold compile, after one warm-up run. A
// pass that builds a structure no later pass reads shows up here even
// when it builds it from few objects. The budget is the bytes measured
// when it was last set plus 10 %; lower it when a change lowers them.
func TestCompileBytesBudget(t *testing.T) {
	const budget = 3141575 // 2 855 977 measured once reach walked a body without a directive once (2 975 059 before, 4 007 766 before depend dropped its pair list and procDists, livedecomp and emitShift their unread structure) + 10 %
	src := SyntheticProcsSrc(32, 8, 32, 4)
	opts := DefaultOptions()
	opts.Jobs = 1
	compile := func() {
		if _, err := Compile(src, opts); err != nil {
			t.Fatal(err)
		}
	}
	compile()
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		compile()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes per compile (budget %d)", bytes, budget)
	if bytes > budget {
		t.Errorf("compile allocates %d bytes, budget %d", bytes, budget)
	}
}

// TestEditCompileAllocBudget is TestCompileAllocBudget's warm twin: a
// one-procedure edit of the same program compiled against a summary
// cache that holds the rest, as the compile daemon sees one. Each run
// edits another constant of one subroutine, so each parses, analyzes
// and compiles that unit afresh, schedules it and MAIN, and takes the
// rest from the cache: parsed units, local facts, entries and schedules.
func TestEditCompileAllocBudget(t *testing.T) {
	const budget = 5316 // 4 833 measured once a phase-3 compile stopped building what nobody read (5 263 when the cache began to keep each unit's local facts, 13 824 before, 15 961 before it kept unit digests and schedules, 25 085 before it memoized parsed units) + 10 %
	src := SyntheticProcsSrc(32, 8, 32, 4)
	opts := DefaultOptions()
	opts.Jobs = 1
	opts.Cache = NewSummaryCache()
	if _, err := Compile(src, opts); err != nil {
		t.Fatal(err)
	}
	var edits []string
	for i := 0; i < 6; i++ { // AllocsPerRun's warm-up run and five
		edits = append(edits, strings.Replace(src, "+ 9.0\n", fmt.Sprintf("+ %d.0\n", 1000+i), 1))
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Compile(edits[0], opts); err != nil {
			t.Fatal(err)
		}
		edits = edits[1:]
	})
	t.Logf("%.0f allocations per edit compile (budget %d)", allocs, budget)
	if allocs > budget {
		t.Errorf("an edit compile allocates %.0f objects, budget %d", allocs, budget)
	}
}

// TestRunAllocBudget bounds what the first Runner.Run of a Program, the
// one that lowers its plan, allocates on the two workloads whose arrays
// dominated it while every simulated processor held a copy of every
// array (165.5 MB and 18.0 MB): a processor stores
// its share, its overlap region and one buffer per communication site,
// so what is left is the machine (its per-processor state and the
// message rings; until it stopped keeping P×P pair statistics, 16.8 MB
// of dgefa's and 1.0 MB of dyndist's run) and the lowered plan. The third row is the one whose remap was
// an exchange of whole shares between all pairs of processors (37.4 MB,
// 29 of them message rings) until a remap sent each element once. Since
// a ring's buffer returns to a free list when its link drains, rings
// cost what the messages in flight need, not one per pair ever used.
// The fourth row is svc_recompile's program, whose first run allocates
// little besides its plan: one closure per operator, and a loop the
// schedule pass splits is lowered twice (a repeat run:
// TestRepeatRunAllocBudget).
func TestRunAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("a P=1024 run")
	}
	synth32 := SyntheticProcsSrc(32, 8, 32, 4)
	for _, w := range []struct {
		name, src  string
		init       map[string][]float64
		budgetMB   float64
		budgetObjs uint64 // 0: none
	}{
		// 2.15 MB and 4 888 objects measured, 2.28 MB and 5 016 under ci.sh's -race (2.46 MB and 18 592 objects while each
		// processor's node, frames and arrays map were objects of their own and every processor worked out every broadcast's
		// group; 3.34 MB with a coroutine per processor, 20.2 with pair statistics, 26.2 before value-receiver operands, 32.9
		// before pooled rings)
		{"dgefa_p1024", DgefaSrc(128, 1024), map[string][]float64{"a": DgefaMatrix(128)}, 2.5, 5700},
		{"jacobi2d_p16", Jacobi2DSrc(256, 10, 16), map[string][]float64{"a": Ramp(256 * 256)}, 4, 0},  // 2.4 measured
		{"dyndist_p256", Fig15ScaledSrc(4096, 3, 256), map[string][]float64{"X": Ramp(4096)}, 4.1, 0}, // 2.98 measured, 3.70 under ci.sh's -race: the row above leaves one exited goroutine for its 256 coroutines to reuse, not 1 024 (3.05 before per-run slabs, 2.93 before that; 4.0 with pair statistics, 4.5 before)
		{"synth32", synth32, RampInit(synth32), 1.4, 0},                                               // 1.27 measured with its chains split (0.95 blocking; 1.61 while closures moved their operands to the heap)
	} {
		prog, err := Compile(w.src, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(WithInit(w.init))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := r.Run(prog); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		mb, objs := float64(after.TotalAlloc-before.TotalAlloc)/1e6, after.Mallocs-before.Mallocs
		t.Logf("%s: one run allocates %.2f MB (budget %g) in %d objects (budget %d)", w.name, mb, w.budgetMB, objs, w.budgetObjs)
		if mb > w.budgetMB {
			t.Errorf("%s: one run allocates %.1f MB, budget %g", w.name, mb, w.budgetMB)
		}
		if w.budgetObjs > 0 && objs > w.budgetObjs {
			t.Errorf("%s: one run allocates %d objects, budget %d", w.name, objs, w.budgetObjs)
		}
	}
}
