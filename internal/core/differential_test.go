package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"fortd/internal/ast"
	"fortd/internal/codegen"
	"fortd/internal/livedecomp"
	"fortd/internal/machine"
	"fortd/internal/progen"
	"fortd/internal/spmd"
	"fortd/internal/summarycache"
)

// This file implements differential testing: randomly generated
// Fortran D programs are compiled with every strategy and executed on
// the simulated machine; all variants must produce exactly the results
// of the sequential reference interpreter. This exercises partitioning,
// communication classification/placement, cloning, dynamic
// redistribution and the run-time resolution generator on program
// shapes nobody hand-picked.

// TestDifferentialRandomPrograms is a table-driven property test: every
// lane draws random programs (array sizes, processor counts, statement
// mixes) from a fixed seed, compiles them with its strategy and worker
// count, and checks the SPMD run against the sequential reference, both
// started from the same non-zero arrays (seedArrays). The
// parallel lanes additionally assert the determinism property — the
// listing compiled with Jobs=N must equal the Jobs=1 listing — and the
// cached lane recompiles through a summary cache and asserts the warm
// program is all hits yet still byte-identical and correct.
func TestDifferentialRandomPrograms(t *testing.T) {
	cases := []struct {
		name     string
		strategy codegen.Strategy
		// maxJobs > 1 draws a random worker count in [2, maxJobs] per
		// trial and checks listings against the sequential compile
		maxJobs int
		cached  bool
		seed    int64
		trials  int
	}{
		{name: "interproc", strategy: codegen.StrategyInterproc, seed: 20260705, trials: 40},
		{name: "immediate", strategy: codegen.StrategyImmediate, seed: 20260705, trials: 40},
		{name: "runtime", strategy: codegen.StrategyRuntime, seed: 20260705, trials: 40},
		{name: "interproc-parallel", strategy: codegen.StrategyInterproc, maxJobs: 8, seed: 20260806, trials: 15},
		{name: "interproc-parallel-cached", strategy: codegen.StrategyInterproc, maxJobs: 8, cached: true, seed: 20260807, trials: 15},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			for trial := 0; trial < tc.trials; trial++ {
				g := &progen.Gen{
					Rng: rng,
					N:   rng.Intn(40) + 24,
					P:   []int{2, 3, 4}[rng.Intn(3)],
				}
				src := g.Generate()

				opts := DefaultOptions()
				opts.Strategy = tc.strategy
				if tc.maxJobs > 1 {
					opts.Jobs = rng.Intn(tc.maxJobs-1) + 2
				}
				if tc.cached {
					opts.Cache = summarycache.New()
				}
				c, err := Compile(src, opts)
				if err != nil {
					t.Fatalf("trial %d: compile: %v\n%s", trial, err, src)
				}
				if tc.maxJobs > 1 {
					seqOpts := opts
					seqOpts.Jobs = 1
					seqOpts.Cache = nil
					sc, err := Compile(src, seqOpts)
					if err != nil {
						t.Fatalf("trial %d: sequential compile: %v\n%s", trial, err, src)
					}
					if got, want := listingOf(c), listingOf(sc); got != want {
						t.Fatalf("trial %d: jobs=%d listing differs from sequential\n%s", trial, opts.Jobs, src)
					}
				}
				if tc.cached {
					warm, err := Compile(src, opts)
					if err != nil {
						t.Fatalf("trial %d: warm recompile: %v\n%s", trial, err, src)
					}
					if len(warm.CacheMisses) != 0 {
						t.Fatalf("trial %d: warm recompile misses %v\n%s", trial, warm.CacheMisses, src)
					}
					if got, want := listingOf(warm), listingOf(c); got != want {
						t.Fatalf("trial %d: warm listing differs from cold\n%s", trial, src)
					}
					c = warm // run the cache-built program against the reference
				}
				matchesReference(t, c, fmt.Sprintf("trial %d", trial), src)
			}
		})
	}
}

// TestDifferentialRemapLevels runs 20 programs in which a callee
// redistributes its formal — called from a loop that may run no
// iteration and under an IF — at every remap level against the
// reference: each level's placement must keep every value (ROADMAP item
// 1(c)).
func TestDifferentialRemapLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(20261018))
	for found := 0; found < 20; {
		g := &progen.Gen{Rng: rng, N: rng.Intn(40) + 24, P: []int{2, 3, 4}[rng.Intn(3)], Temps: true}
		src := g.Generate()
		if !strings.Contains(src, "do j = 1, m") {
			continue
		}
		found++
		for _, level := range []livedecomp.Level{livedecomp.OptNone, livedecomp.OptLive, livedecomp.OptHoist, livedecomp.OptKills} {
			opts := DefaultOptions()
			opts.RemapOpt = level
			c, err := Compile(src, opts)
			if err != nil {
				t.Fatalf("program %d at %s: compile: %v\n%s", found, level, err, src)
			}
			matchesReference(t, c, fmt.Sprintf("program %d at %s", found, level), src)
		}
	}
}

// matchesReference runs c's SPMD program and the sequential reference
// from the same non-zero arrays and fails unless they agree.
func matchesReference(t *testing.T, c *Compilation, what, src string) {
	t.Helper()
	init := seedArrays(c.Source)
	par, err := spmd.Lower(c.Program, c.P, c.MainDists, nil, nil).Run(context.Background(), machine.DefaultConfig(c.P), spmd.Options{Init: init})
	if err != nil {
		t.Fatalf("%s: run: %v\n%s", what, err, src)
	}
	seq, err := spmd.Lower(c.Source, 1, nil, nil, nil).RunSequential(context.Background(), spmd.Options{Init: init})
	if err != nil {
		t.Fatalf("%s: reference: %v", what, err)
	}
	for name, want := range seq.Arrays {
		got := par.Arrays[name]
		for i := range want {
			if !(math.Abs(got[i]-want[i]) <= 1e-9*(1+math.Abs(want[i]))) {
				t.Fatalf("%s: %s[%d] = %v, want %v\nprogram:\n%s\ngenerated:\n%s",
					what, name, i, got[i], want[i], src, listingOf(c))
			}
		}
	}
}

// seedArrays starts every main-program array non-zero and unlike at any
// two elements, so that an element a message lost, a remap dropped or a
// processor counted twice cannot equal the reference by being 0 on both
// sides.
func seedArrays(prog *ast.Program) map[string][]float64 {
	init := map[string][]float64{}
	for _, sym := range prog.Main().Symbols.Symbols() {
		if sym.Kind != ast.SymArray {
			continue
		}
		size := 1
		for _, d := range sym.Dims {
			lo, _ := ast.EvalInt(d.Lo, nil)
			hi, _ := ast.EvalInt(d.Hi, nil)
			size *= hi - lo + 1
		}
		vals := make([]float64, size)
		for i := range vals {
			vals[i] = 0.5 + float64(i*i%7) + 8*float64(i)
		}
		init[sym.Name] = vals
	}
	return init
}

func listingOf(c *Compilation) string {
	return ast.Print(c.Program)
}
