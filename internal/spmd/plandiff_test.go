package spmd_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fortd"
	"fortd/internal/ast"
	"fortd/internal/codegen"
	"fortd/internal/core"
	"fortd/internal/decomp"
	"fortd/internal/machine"
	"fortd/internal/parser"
	"fortd/internal/progen"
	"fortd/internal/spmd"
	"fortd/internal/trace"
)

// observed is everything a run shows the outside: statistics, final
// arrays and the sorted trace export (nil arrays and trace on failure).
type observed struct {
	stats  machine.Stats
	arrays map[string][]float64
	jsonl  []byte
	err    error
}

type runFn func(context.Context, *ast.Program, machine.Config, spmd.Options) (*spmd.RunResult, error)

func observe(t *testing.T, run runFn, prog *ast.Program, cfg machine.Config, opts spmd.Options) observed {
	t.Helper()
	tr := trace.New()
	opts.Trace = tr
	res, err := run(context.Background(), prog, cfg, opts)
	if err != nil {
		return observed{err: err}
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return observed{stats: res.Stats, arrays: res.Arrays, jsonl: buf.Bytes()}
}

// samePlanAndTree runs prog on the execution plan and on the
// tree-walking oracle and requires the two runs to be
// indistinguishable.
func samePlanAndTree(t *testing.T, prog *ast.Program, cfg machine.Config, opts spmd.Options) {
	t.Helper()
	plan := observe(t, spmd.RunContext, prog, cfg, opts)
	tree := observe(t, spmd.RunTreeWalk, prog, cfg, opts)
	if (plan.err == nil) != (tree.err == nil) {
		t.Fatalf("plan error %v, tree-walk error %v", plan.err, tree.err)
	}
	if plan.err != nil {
		return
	}
	if !reflect.DeepEqual(plan.stats, tree.stats) {
		t.Errorf("stats differ:\n plan=%+v\n tree=%+v", plan.stats, tree.stats)
	}
	if !reflect.DeepEqual(plan.arrays, tree.arrays) {
		t.Errorf("final arrays differ")
	}
	if !bytes.Equal(plan.jsonl, tree.jsonl) {
		t.Errorf("JSONL trace exports differ (%d vs %d bytes)", len(plan.jsonl), len(tree.jsonl))
	}
}

// faultLane is the one fault plan of the matrix: random delivery delays
// and duplicates perturb every flight, so blocking and split-phase
// receives stall and discard the way a flaky interconnect makes them.
var faultLane = &machine.FaultPlan{Seed: 11, DelayProb: 0.2, DelayMax: 40, DupProb: 0.1}

// TestPlanMatchesTreeWalk is the executor's differential test: the
// execution plan against the tree-walking interpreter it replaced, on
// every program in testdata/, the workloads.go generators at small
// sizes and random programs, at P ∈ {1,3,4,16}, with the overlap
// schedule on and off and under a delay/dup fault plan. Statistics and
// arrays must be deeply equal and the trace exports byte-equal: the
// plan may only be faster.
func TestPlanMatchesTreeWalk(t *testing.T) {
	type source struct {
		name string
		src  func(p int) string
		init func(src string) map[string][]float64
	}
	var sources []source
	files, err := filepath.Glob("../../testdata/*.f")
	if err != nil || len(files) < 5 {
		t.Fatalf("sample programs: %v, %v", files, err)
	}
	for _, file := range files {
		text, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		sources = append(sources, source{filepath.Base(file), func(int) string { return string(text) }, fortd.RampInit})
	}
	dgefaInit := func(n int) func(string) map[string][]float64 {
		return func(string) map[string][]float64 { return map[string][]float64{"a": fortd.DgefaMatrix(n)} }
	}
	sources = append(sources,
		source{"Fig1Src", func(p int) string { return fortd.Fig1Src(40, p) }, fortd.RampInit},
		source{"Fig4Src", func(p int) string { return fortd.Fig4Src(24, p) }, fortd.RampInit},
		source{"Fig15ScaledSrc", func(p int) string { return fortd.Fig15ScaledSrc(64, 2, p) }, fortd.RampInit},
		source{"DgefaSrc", func(p int) string { return fortd.DgefaSrc(24, p) }, dgefaInit(24)},
		source{"Jacobi1DSrc", func(p int) string { return fortd.Jacobi1DSrc(64, 3, p) }, fortd.RampInit},
		source{"Jacobi2DSrc", func(p int) string { return fortd.Jacobi2DSrc(24, 2, p) }, fortd.RampInit},
		source{"ADISrc", func(p int) string { return fortd.ADISrc(16, 2, p, true) }, fortd.RampInit},
		source{"SyntheticProcsSrc", func(p int) string { return fortd.SyntheticProcsSrc(6, 3, 32, p) }, fortd.RampInit},
		source{"ReductionSrc", func(p int) string { return fortd.ReductionSrc(64, p) }, fortd.RampInit},
	)
	rng := rand.New(rand.NewSource(20260929))
	for i := 0; i < 12; i++ {
		n := rng.Intn(40) + 24
		seed := rng.Int63()
		sources = append(sources, source{fmt.Sprintf("random%d", i), func(p int) string {
			g := &progen.Gen{Rng: rand.New(rand.NewSource(seed)), N: n, P: p}
			return g.Generate()
		}, fortd.RampInit})
	}

	for _, s := range sources {
		for _, p := range []int{1, 3, 4, 16} {
			for _, overlap := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/p%d/overlap=%v", s.name, p, overlap), func(t *testing.T) {
					src := s.src(p)
					copts := core.DefaultOptions()
					copts.P, copts.Overlap = p, overlap
					c, err := core.Compile(src, copts)
					if err != nil {
						t.Skipf("does not compile at P=%d: %v", p, err)
					}
					init := s.init(src)
					cfg := machine.DefaultConfig(c.P)
					samePlanAndTree(t, c.Program, cfg, spmd.Options{Dists: c.MainDists, Init: init})
					samePlanAndTree(t, c.Program, cfg, spmd.Options{Dists: c.MainDists, Init: init, Faults: faultLane})
					// the sequential reference is the same executor at P=1
					samePlanAndTree(t, c.Source, machine.Config{P: 1, FlopCost: 1}, spmd.Options{Init: init})
				})
			}
		}
	}

	// run-time resolution generates guarded element-wise code, a program
	// shape the interprocedural strategy never produces
	t.Run("runtime-resolution", func(t *testing.T) {
		copts := core.DefaultOptions()
		copts.Strategy = codegen.StrategyRuntime
		c, err := core.Compile(fortd.Jacobi2DSrc(16, 2, 4), copts)
		if err != nil {
			t.Fatal(err)
		}
		samePlanAndTree(t, c.Program, machine.DefaultConfig(c.P), spmd.Options{Dists: c.MainDists})
	})

	// hand-written SPMD text runs without the compiler in front
	t.Run("hand-spmd", func(t *testing.T) {
		prog, err := parser.Parse(fortd.DgefaHandSrc(16, 4))
		if err != nil {
			t.Fatal(err)
		}
		dist := decomp.MustDist(decomp.NewDecomp(decomp.Collapsed, decomp.Cyclic), []int{16, 16}, 4)
		samePlanAndTree(t, prog, machine.DefaultConfig(4), spmd.Options{
			Dists: map[string]*decomp.Dist{"a": dist},
			Init:  map[string][]float64{"a": fortd.DgefaMatrix(16)},
		})
	})
}
