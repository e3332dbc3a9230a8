package spmd_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

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

type runFn func(context.Context, *ast.Program, machine.Config, map[string]*decomp.Dist, spmd.Options) (*spmd.RunResult, error)

// runPlan is spmd.RunTreeWalk's counterpart: lower prog, then run the plan.
func runPlan(ctx context.Context, prog *ast.Program, cfg machine.Config, dists map[string]*decomp.Dist, opts spmd.Options) (*spmd.RunResult, error) {
	return spmd.Lower(prog, cfg.P, dists, nil, nil).Run(ctx, cfg, opts)
}

func observe(t *testing.T, run runFn, prog *ast.Program, cfg machine.Config, dists map[string]*decomp.Dist, opts spmd.Options) observed {
	t.Helper()
	tr := trace.New()
	opts.Trace = tr
	res, err := run(context.Background(), prog, cfg, dists, opts)
	if err != nil {
		return observed{err: err}
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return observed{stats: res.Stats, arrays: res.Arrays, jsonl: buf.Bytes()}
}

// samePlanAndTree runs prog on the tree-walking oracle and twice on one
// execution plan, and requires the three runs to be indistinguishable:
// a plan is shared by every run of its program, so running it must
// leave it as it was.
func samePlanAndTree(t *testing.T, prog *ast.Program, cfg machine.Config, dists map[string]*decomp.Dist, opts spmd.Options) {
	t.Helper()
	pl := spmd.Lower(prog, cfg.P, dists, nil, nil)
	run := func(ctx context.Context, _ *ast.Program, cfg machine.Config, _ map[string]*decomp.Dist, opts spmd.Options) (*spmd.RunResult, error) {
		return pl.Run(ctx, cfg, opts)
	}
	tree := observe(t, spmd.RunTreeWalk, prog, cfg, dists, opts)
	for i := 1; i <= 2; i++ {
		plan := observe(t, run, prog, cfg, dists, opts)
		if (plan.err == nil) != (tree.err == nil) {
			t.Fatalf("run %d: plan error %v, tree-walk error %v", i, plan.err, tree.err)
		}
		if plan.err != nil {
			return
		}
		if !reflect.DeepEqual(plan.stats, tree.stats) {
			t.Errorf("run %d: stats differ:\n plan=%+v\n tree=%+v", i, plan.stats, tree.stats)
		}
		if !reflect.DeepEqual(plan.arrays, tree.arrays) {
			t.Errorf("run %d: final arrays differ", i)
		}
		if !bytes.Equal(plan.jsonl, tree.jsonl) {
			t.Errorf("run %d: JSONL trace exports differ (%d vs %d bytes)", i, len(plan.jsonl), len(tree.jsonl))
		}
	}
}

// sameFailure requires plan and oracle to fail prog with the same first
// node error, reading want.
func sameFailure(t *testing.T, prog *ast.Program, cfg machine.Config, want string) {
	t.Helper()
	text := func(name string, run runFn) string {
		_, err := run(context.Background(), prog, cfg, nil, spmd.Options{})
		var ne *spmd.NodeError
		if !errors.As(err, &ne) {
			t.Fatalf("%s: error %v, want a node error reading %q", name, err, want)
		}
		return ne.Err.Error()
	}
	if plan, tree := text("plan", runPlan), text("tree walk", spmd.RunTreeWalk); plan != want || tree != want {
		t.Errorf("plan fails with %q, the tree walk with %q, want %q", plan, tree, want)
	}
}

// cursorLanes are loops at the edges of what the plan runs on cursors
// (cursor.go) and in strips (strip.go): each either qualifies and must
// behave as if it did not, or looks as if it qualified and must not. A
// lane with fails set ends in that node error; plant names a subscript
// identifier to replace by one no symbol table declares, the way only
// generated code can; a deadline lane runs until a short deadline stops
// it.
var cursorLanes = []struct {
	name, body, subs, fails, plant string
	deadline                       bool
}{
	{name: "step", body: `
      do i = 2, 30, 3
        a(i) = a(i-1) + 2 * b(i+1)
      enddo
      do i = 1, 32, 31
        b(i) = a(i) + i
      enddo
      do i = 3, 4, 7
        b(i) = b(i) + 0.5
      enddo`},
	{name: "negative-step", body: `
      do i = 31, 2, -1
        a(i) = a(i+1) + b(i-1)
      enddo
      do i = 30, 3, -4
        b(i) = a(i) - a(i-2)
      enddo`},
	{name: "zero-trip", body: `
      k = 7
      do i = 5, 4
        a(i+100) = 1.0
      enddo
      do i = 1, 4, -1
        a(i-100) = 1.0
      enddo
      do i = k, k - 1
        b(i,i) = 1.0
      enddo
      a(1) = i`},
	{name: "lower-bounds", body: `
      do j = 0, 7
        do i = -3, 5
          c(i,j) = c(i,j) + i * j + a(j+1)
        enddo
      enddo
      k = 2
      do j = 1, 7
        c(k-3,j) = c(k-3,j-1) + c(5,j)
      enddo`},
	{name: "stencil", body: `
      do k = 1, 3
        do i = -2, 4
          do j = 1, 6
            d(i,j) = 0.25 * (c(i-1,j) + c(i+1,j) + c(i,j-1) + c(i,j+1))
          enddo
        enddo
        do i = -2, 4
          do j = 1, 6
            c(i,j) = d(i,j)
          enddo
        enddo
      enddo`},
	{name: "reduction", body: `
      do k = 1, 6
        s = 0.0
        do i = k - 3, 5
          s = MAX(s, ABS(c(i,k) - 40))
          t = t + c(i,k) * c(k-3,k)
        enddo
        a(k) = s
        b(k) = t
      enddo`},
	{name: "broadcast-between", body: `
      my$p = myproc()
      do k = 1, 4
        do i = 1, 32
          a(i) = a(i) + my$p + k
        enddo
        broadcast a(1:32) from MOD(k, n$proc)
        do i = 2, 32
          b(i) = b(i) + a(i-1)
        enddo
      enddo`},
	{name: "oob-first", body: `
      do i = 0, 5
        a(i) = 1.0
      enddo`, fails: "P: a: index 0 out of bounds [1:32] in dim 0"},
	{name: "oob-middle", body: `
      do i = 1, 8
        a(i) = b(i) + e(i)
      enddo`, fails: "P: e: index 6 out of bounds [1:5] in dim 0"},
	{name: "oob-middle-moving-subscript", body: `
      k = 20
      do i = 1, 8
        k = k + 3
        s = s + a(k)
      enddo`, fails: "P: a: index 35 out of bounds [1:32] in dim 0"},
	{name: "oob-last", body: `
      do i = 1, 33
        a(i) = a(i) + 1.0
      enddo`, fails: "P: a: index 33 out of bounds [1:32] in dim 0"},
	{name: "oob-last-strided", body: `
      do i = 30, -2, -4
        a(i+1) = 1.0
      enddo`, fails: "P: a: index -1 out of bounds [1:32] in dim 0"},
	{name: "oob-invariant", body: `
      k = 9
      do i = 1, 5
        c(i,k-1) = 1.0
      enddo`, fails: "P: c: index 8 out of bounds [0:7] in dim 1"},
	{name: "rank-mismatch", body: `
      call fill(c)`, subs: `
      SUBROUTINE fill(x)
      REAL x(10)
      do i = 1, 4
        x(i) = 1.0
      enddo
      END`, fails: "fill: x: 1 subscripts for a rank-2 array"},
	{name: "rank-of-the-actual", body: `
      call fill(a)
      call fill(e)`, subs: `
      SUBROUTINE fill(x)
      REAL x(10)
      do i = 1, 5
        x(i) = x(i) + i
      enddo
      END`},
	{name: "undefined-invariant", body: `
      k = 2
      do i = 1, 4
        c(i,k) = 1.0
      enddo`, plant: "k", fails: "P: unknown variable undefined$"},
	{name: "undefined-invariant-after-another-error", body: `
      k = 2
      do i = 1, 4
        c(i,k) = 1 / (j - j)
      enddo`, plant: "k", fails: "P: integer division by zero"},
	{name: "undefined-invariant-zero-trip", body: `
      k = 2
      do i = 4, 1
        c(i,k) = 1.0
      enddo
      a(1) = 3.0`, plant: "k"},
	{name: "index-aliases-assigned", body: `
      x = 0
      call walk(a, x, x)`, subs: `
      SUBROUTINE walk(a, i, k)
      REAL a(32)
      do i = 1, 12, 2
        k = k + 1
        a(i) = a(i) + k
      enddo
      END`},
	{name: "invariant-aliases-assigned", body: `
      x = 1
      call walk(c, x, x)`, subs: `
      SUBROUTINE walk(c, k, m)
      REAL c(-3:5,0:7)
      do i = -3, 2
        c(i,k) = c(i,k) + 100
        m = m + 1
      enddo
      END`},
	{name: "invariant-aliases-index", body: `
      x = 1
      call walk(c, x, x)
      y = 2
      call walk(c, y, z)`, subs: `
      SUBROUTINE walk(c, i, k)
      REAL c(-3:5,0:7)
      do i = 1, 5
        c(i,k) = c(i,k) - 7
      enddo
      END`},
	{name: "body-assigns-index", body: `
      do i = 1, 16
        i = i + 1
        a(i) = a(i) + 5
      enddo`},
	{name: "strip-one-element-written", body: `
      k = 5
      do i = 1, 32
        a(k) = a(k) + b(i)
      enddo`},
	{name: "strip-carried-backward", body: `
      do i = 2, 32
        b(i) = a(i-1)
        a(i) = b(i) * 0.5 + 1
      enddo`},
	{name: "strip-aliased-formals", body: `
      call two(f, f)
      call two(g, f)`, subs: `
      SUBROUTINE two(x, y)
      REAL x(600), y(600)
      do i = 2, 600
        x(i) = y(i-1) + 1
      enddo
      do i = 1, 600
        y(i) = x(i) * 0.5 + y(i)
      enddo
      END`},
	{name: "strip-trips", body: `
      do i = 1, 255
        f(i) = f(i) + g(i+1) * i
      enddo
      do i = 2, 257
        g(i) = f(i-1) - g(i)
      enddo
      do i = 1, 257
        f(i+1) = -g(i) / 4
      enddo`},
	{name: "strip-negative-step", body: `
      do i = 600, 3, -3
        f(i) = g(i-1) - 2.5 * f(i)
      enddo
      do i = 599, 1, -1
        g(i) = (f(i) - g(i)) * (f(i) + i)
      enddo`},
	{name: "strip-index", body: `
      do i = 3, 300, 2
        f(i) = i * 0.5 + g(i)
        g(i) = f(i) - i
      enddo
      a(1) = i
      do i = 7, 7
        a(2) = i + a(3)
      enddo
      a(4) = i`},
	{name: "strip-interleaved-columns", body: `
      do j = 1, 7
        do i = -3, 5
          c(i,j) = c(i,j) - 0.5 * c(i,j-1) + d(i,j)
        enddo
      enddo`},
	{name: "strip-deadline", body: `
      do k = 1, 2000000000
        do i = 1, 600
          f(i) = g(i) * 0.5 + f(i)
        enddo
      enddo`, deadline: true},
	{name: "subscript-reads-array", body: `
      do i = 1, 5
        e(i) = 6 - i
      enddo
      do i = 1, 5
        a(e(i)) = a(e(i)) + i
        e(i) = i
      enddo`},
}

// cursorLaneProgram wraps a lane's statements in a main program over a
// fixed set of seeded arrays.
func cursorLaneProgram(t *testing.T, body, subs, plant string, p int) *ast.Program {
	t.Helper()
	prog, err := parser.Parse(fmt.Sprintf(`
      PROGRAM P
      PARAMETER (n$proc = %d)
      REAL a(32), b(32), c(-3:5,0:7), d(-3:5,0:7), e(5), f(600), g(600)
      REAL u(600), v(600), w(600)
      do i = 1, 600
        f(i) = 0.5 * i
        g(i) = 600 - i
      enddo
      do i = 1, 32
        a(i) = i
        b(i) = 32 - i
      enddo
      do i = -3, 5
        do j = 0, 7
          c(i,j) = 10 * i + j
        enddo
      enddo
%s
      END
%s`, p, body, subs))
	if err != nil {
		t.Fatal(err)
	}
	if plant != "" {
		planted := 0
		ast.WalkExprs(prog.Main().Body, func(e ast.Expr) {
			if ref, ok := e.(*ast.ArrayRef); ok {
				for i, sub := range ref.Subs {
					if id, ok := sub.(*ast.Ident); ok && id.Name == plant {
						ref.Subs[i] = &ast.Ident{Name: "undefined$"}
						planted++
					}
				}
			}
		})
		if planted == 0 {
			t.Fatalf("no subscript %s to replace", plant)
		}
	}
	return prog
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
					samePlanAndTree(t, c.Program, cfg, c.MainDists, spmd.Options{Init: init})
					samePlanAndTree(t, c.Program, cfg, c.MainDists, spmd.Options{Init: init, Faults: faultLane})
					// the sequential reference is the same executor at P=1
					samePlanAndTree(t, c.Source, machine.Config{P: 1, FlopCost: 1}, nil, spmd.Options{Init: init})
				})
			}
		}
	}

	for _, lane := range cursorLanes {
		for _, p := range []int{1, 3, 4, 16} {
			t.Run(fmt.Sprintf("cursor/%s/p%d", lane.name, p), func(t *testing.T) {
				prog := cursorLaneProgram(t, lane.body, lane.subs, lane.plant, p)
				cfg := machine.DefaultConfig(p)
				if lane.fails != "" {
					sameFailure(t, prog, cfg, lane.fails)
					return
				}
				if lane.deadline {
					for name, run := range map[string]runFn{"plan": runPlan, "tree walk": spmd.RunTreeWalk} {
						_, err := run(context.Background(), prog, cfg, nil, spmd.Options{Deadline: 50 * time.Millisecond})
						if dl := (*machine.DeadlockError)(nil); !errors.As(err, &dl) || !dl.Deadline {
							t.Errorf("%s: error %v, want the deadline's", name, err)
						}
					}
					return
				}
				if _, err := spmd.Lower(prog, cfg.P, nil, nil, nil).Run(context.Background(), cfg, spmd.Options{}); err != nil {
					t.Fatal(err)
				}
				samePlanAndTree(t, prog, cfg, nil, spmd.Options{})
				samePlanAndTree(t, prog, cfg, nil, spmd.Options{Faults: faultLane})
			})
		}
	}

	// the plan stores the overlap region of a distributed array, NaN
	// until a message fills it, where the tree walk holds every element:
	// a loop that reads it gets the same NaN in strips as element by
	// element (the second loop's scalar statement keeps it from strips)
	for _, p := range []int{3, 4, 16} {
		t.Run(fmt.Sprintf("cursor/strip-nan-overlap/p%d", p), func(t *testing.T) {
			prog := cursorLaneProgram(t, `
      my$p = myproc()
      m = (600 + n$proc - 1) / n$proc
      do i = MAX(2, my$p * m + 1), MIN(599, (my$p + 1) * m)
        v(i) = u(i-1) + u(i+1) * 0.5
      enddo
      do i = MAX(2, my$p * m + 1), MIN(599, (my$p + 1) * m)
        w(i) = u(i-1) + u(i+1) * 0.5
        s = 0
      enddo`, "", "", p)
			block := decomp.MustDist(decomp.NewDecomp(decomp.Block), []int{600}, p)
			dists := map[string]*decomp.Dist{"u": block, "v": block, "w": block}
			wide := func(_, _ string, _, n int) (int, int) { return 0, n + 1 }
			init := map[string][]float64{"u": fortd.Ramp(600)}
			res, err := spmd.Lower(prog, p, dists, wide, nil).Run(context.Background(), machine.DefaultConfig(p), spmd.Options{Init: init})
			if err != nil {
				t.Fatal(err)
			}
			v, w, nans := res.Arrays["v"], res.Arrays["w"], 0
			for i := range v {
				if math.Float64bits(v[i]) != math.Float64bits(w[i]) {
					t.Errorf("v[%d] = %v in strips, %v element by element", i, v[i], w[i])
				}
				if math.IsNaN(v[i]) {
					nans++
				}
			}
			if nans == 0 {
				t.Error("no NaN read: the lane reads no overlap region")
			}
		})
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
		samePlanAndTree(t, c.Program, machine.DefaultConfig(c.P), c.MainDists, spmd.Options{})
	})

	// hand-written SPMD text runs without the compiler in front
	t.Run("hand-spmd", func(t *testing.T) {
		prog, err := parser.Parse(fortd.DgefaHandSrc(16, 4))
		if err != nil {
			t.Fatal(err)
		}
		dist := decomp.MustDist(decomp.NewDecomp(decomp.Collapsed, decomp.Cyclic), []int{16, 16}, 4)
		samePlanAndTree(t, prog, machine.DefaultConfig(4), map[string]*decomp.Dist{"a": dist},
			spmd.Options{Init: map[string][]float64{"a": fortd.DgefaMatrix(16)}})
	})
}
