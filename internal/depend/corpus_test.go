package depend_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"fortd"
	"fortd/internal/ast"
	"fortd/internal/depend"
	"fortd/internal/parser"
	"fortd/internal/progen"
)

// corpus is every program the repository can name: testdata, the
// workload generators at the benchmark's and at test sizes, and 300
// random programs.
func corpus(t testing.TB) map[string]string {
	srcs := map[string]string{
		"fig1":        fortd.Fig1Src(100, 4),
		"fig4":        fortd.Fig4Src(20, 4),
		"fig15":       fortd.Fig15Src(5, 4),
		"dyndist":     fortd.Fig15ScaledSrc(4096, 3, 256),
		"dgefa":       fortd.DgefaSrc(128, 1024),
		"dgefa_hand":  fortd.DgefaHandSrc(16, 4),
		"jacobi1d":    fortd.Jacobi1DSrc(64, 3, 8),
		"jacobi2d":    fortd.Jacobi2DSrc(256, 10, 16),
		"adi_static":  fortd.ADISrc(16, 2, 4, false),
		"adi_dynamic": fortd.ADISrc(16, 2, 4, true),
		"synth":       fortd.SyntheticProcsSrc(16, 8, 32, 4),
		"reduction":   fortd.ReductionSrc(60, 6),
	}
	files, err := filepath.Glob("../../testdata/*.f")
	if err != nil || len(files) < 5 {
		t.Fatalf("testdata: %v %v", files, err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(f)] = string(b)
	}
	for seed := int64(1); seed <= 300; seed++ {
		g := &progen.Gen{Rng: rand.New(rand.NewSource(seed)), N: 24 + int(seed%3)*8, P: []int{3, 4, 6}[seed%3]}
		srcs[fmt.Sprintf("progen/%03d", seed)] = g.Generate()
	}
	return srcs
}

// TestAffineMatchesMapForm holds the dense Affine and the pair test
// that runs on it to the map-based implementation they replaced
// (oracle_test.go): on every subscript of the corpus the two forms
// agree coefficient for coefficient, and on every procedure Analyze
// returns the oracle's Deps in the oracle's order — with PARAMETER
// constants folded and without.
func TestAffineMatchesMapForm(t *testing.T) {
	procs := 0
	for name, src := range corpus(t) {
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, u := range prog.Units {
			consts := ast.MapEnv{}
			for _, s := range u.Symbols.Symbols() {
				if s.Kind == ast.SymConstant {
					consts[s.Name] = s.ConstValue
				}
			}
			for _, env := range []ast.Env{nil, consts} {
				if err := depend.CheckAnalysis(u, env); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
			procs++
		}
	}
	if procs < 400 {
		t.Errorf("only %d procedures checked", procs)
	}
}

// TestSinkLevelIsDeepestTrueDep pins the split between the pair loop's
// two emitters: the one Analyze passes keeps a single sink level per
// reference, and it must agree with the full list the tests collect
// through the same loop — on the corpus and on 50 programs with scalar
// temporaries.
func TestSinkLevelIsDeepestTrueDep(t *testing.T) {
	srcs := corpus(t)
	for seed := int64(0); seed < 50; seed++ {
		g := &progen.Gen{Rng: rand.New(rand.NewSource(seed)), N: 24 + int(seed%3)*8, P: []int{3, 4, 6}[seed%3], Temps: true}
		srcs[fmt.Sprintf("progen-temps/%02d", seed)] = g.Generate()
	}
	carried := 0
	for name, src := range srcs {
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, u := range prog.Units {
			n, err := depend.CheckSinkLevels(u, u.Constants())
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
			carried += n
		}
	}
	if carried == 0 {
		t.Error("no reference has a carried true dependence into it")
	}
	t.Logf("%d references with a carried true dependence into them", carried)
}

// TestSinkLevelsHoldOnExecution runs loop nests. Every nest of the
// corpus (and of 50 programs with scalar temporaries) that sits at the
// top of its unit, has constant bounds and holds only assignments and
// loops is run as written and as four variants: every loop counting
// down, every loop by 2, every loop down by 2, and the two alternating
// by depth. Each variant's iterations are enumerated in execution order,
// evaluating subscripts with the index values, and every read of an
// element some earlier iteration wrote is a write→read pair: carried by
// the first common loop whose iteration differs, else loop-independent
// at the common depth. Analyze's sink level of the read must be at
// least that deep; and the map-based oracle, which reads the step on its
// own, must agree with Analyze on every variant.
func TestSinkLevelsHoldOnExecution(t *testing.T) {
	srcs := corpus(t)
	for seed := int64(0); seed < 50; seed++ {
		g := &progen.Gen{Rng: rand.New(rand.NewSource(seed)), N: 24 + int(seed%3)*8, P: []int{3, 4, 6}[seed%3], Temps: true}
		srcs[fmt.Sprintf("progen-temps/%02d", seed)] = g.Generate()
	}
	nests, pairs, carried := 0, 0, 0
	for name, src := range srcs {
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, u := range prog.Units {
			env := u.Constants()
			for _, s := range u.Body {
				d, ok := s.(*ast.Do)
				if !ok || !plainNest(d, env) {
					continue
				}
				for k := 0; k < 5; k++ {
					v := varyNest(d, env, k, 0)
					proc := &ast.Procedure{Name: u.Name, Symbols: u.Symbols, Body: []ast.Stmt{v}}
					if err := depend.CheckAnalysis(proc, env); err != nil {
						t.Errorf("%s variant %d: %v", name, k, err)
					}
					x := &nestRun{env: ast.MapEnv{}, refs: map[*ast.ArrayRef]*depend.Ref{}, last: map[element][]write{}, budget: 20000}
					for name, val := range env {
						x.env[name] = val
					}
					for _, r := range depend.Analyze(proc, env) {
						x.refs[r.Expr] = r
					}
					if !x.run(proc.Body, nil) {
						continue
					}
					nests++
					for _, p := range x.pairs {
						pairs++
						if p.carried {
							carried++
						}
						if p.read.SinkLevel < p.level {
							t.Errorf("%s %s variant %d: %s has sink level %d, but reads what %s wrote at level %d\n%s",
								name, u.Name, k, p.read.Expr, p.read.SinkLevel, p.write.Expr, p.level, ast.Print(ast.NewProgram([]*ast.Procedure{proc})))
						}
					}
				}
			}
		}
	}
	if nests < 500 || carried == 0 {
		t.Errorf("%d nests run, %d write→read pairs of which %d carried", nests, pairs, carried)
	}
	t.Logf("%d nests run, %d write→read pairs of which %d carried", nests, pairs, carried)
}

// plainNest reports whether d and the loops in it have constant bounds
// under env and unit steps, and hold only assignments and loops.
func plainNest(d *ast.Do, env ast.Env) bool {
	_, okLo := ast.EvalInt(d.Lo, env)
	_, okHi := ast.EvalInt(d.Hi, env)
	if !okLo || !okHi || d.Step != nil {
		return false
	}
	for _, s := range d.Body {
		switch st := s.(type) {
		case *ast.Do:
			if !plainNest(st, env) {
				return false
			}
		case *ast.Assign:
		default:
			return false
		}
	}
	return true
}

// varyNest copies the loops of d (sharing the assignments) as variant k:
// 0 as written, 1 counting down, 2 by 2, 3 down by 2, 4 down at even
// depths and by 2 at odd ones.
func varyNest(d *ast.Do, env ast.Env, k, depth int) *ast.Do {
	lo, _ := ast.EvalInt(d.Lo, env)
	hi, _ := ast.EvalInt(d.Hi, env)
	kind := k
	if k == 4 {
		kind = 1 + depth%2
	}
	v := &ast.Do{Var: d.Var, Lo: d.Lo, Hi: d.Hi}
	v.Position = d.Position
	switch kind {
	case 1:
		v.Lo, v.Hi, v.Step = ast.Int(hi), ast.Int(lo), ast.Int(-1)
	case 2:
		v.Step = ast.Int(2)
	case 3:
		v.Lo, v.Hi, v.Step = ast.Int(hi), ast.Int(lo), &ast.Unary{Op: "-", X: ast.Int(2)}
	}
	for _, s := range d.Body {
		if inner, ok := s.(*ast.Do); ok {
			s = varyNest(inner, env, k, depth+1)
		}
		v.Body = append(v.Body, s)
	}
	return v
}

// element is one array element: the array and up to four subscripts.
type element struct {
	array string
	subs  [4]int
}

// write is the last iteration (the trip counts of its loops) in which
// ref wrote an element.
type write struct {
	ref  *depend.Ref
	iter []int
}

// pair is an observed write→read pair, the level that pins it and
// whether that level carries it.
type pair struct {
	write, read *depend.Ref
	level       int
	carried     bool
}

// nestRun enumerates a nest's iterations in execution order.
type nestRun struct {
	env    ast.MapEnv
	refs   map[*ast.ArrayRef]*depend.Ref
	last   map[element][]write
	pairs  []pair
	iter   []int
	budget int
}

// run executes body; false means the nest cannot be run here (a
// subscript that does not evaluate, too many iterations).
func (x *nestRun) run(body []ast.Stmt, nest []*ast.Do) bool {
	for _, s := range body {
		switch st := s.(type) {
		case *ast.Do:
			lo, _ := ast.EvalInt(st.Lo, nil)
			hi, _ := ast.EvalInt(st.Hi, nil)
			step := 1
			if st.Step != nil {
				step, _ = ast.EvalInt(st.Step, nil)
			}
			depth := len(x.iter)
			for i, t := lo, 0; step > 0 && i <= hi || step < 0 && i >= hi; i, t = i+step, t+1 {
				x.env[st.Var] = i
				x.iter = append(x.iter[:depth], t)
				if !x.run(st.Body, append(nest, st)) {
					return false
				}
			}
			x.iter = x.iter[:depth]
		case *ast.Assign:
			if x.budget--; x.budget < 0 {
				return false
			}
			var reads []*ast.ArrayRef
			collect := func(e ast.Expr) {
				ast.WalkExpr(e, func(e ast.Expr) {
					if r, ok := e.(*ast.ArrayRef); ok {
						reads = append(reads, r)
					}
				})
			}
			collect(st.Rhs)
			lhs, _ := st.Lhs.(*ast.ArrayRef)
			if lhs != nil {
				for _, sub := range lhs.Subs {
					collect(sub)
				}
			}
			for _, r := range reads {
				el, ok := x.element(r)
				if !ok {
					return false
				}
				for _, w := range x.last[el] {
					l, carried := level(w, x.refs[r], x.iter)
					x.pairs = append(x.pairs, pair{w.ref, x.refs[r], l, carried})
				}
			}
			if lhs != nil {
				el, ok := x.element(lhs)
				if !ok {
					return false
				}
				w, ws := x.refs[lhs], x.last[el]
				i := slices.IndexFunc(ws, func(o write) bool { return o.ref == w })
				if i < 0 {
					i, ws = len(ws), append(ws, write{ref: w})
				}
				ws[i].iter = slices.Clone(x.iter)
				x.last[el] = ws
			}
		}
	}
	return true
}

func (x *nestRun) element(r *ast.ArrayRef) (element, bool) {
	el := element{array: r.Name}
	if len(r.Subs) > len(el.subs) {
		return el, false
	}
	for d, sub := range r.Subs {
		v, ok := ast.EvalInt(sub, x.env)
		if !ok {
			return el, false
		}
		el.subs[d] = v
	}
	return el, true
}

// level is the level that pins the pair of w and a read by r at iter:
// the first common loop whose iteration differs, which carries it, or,
// for none, the number of common loops (a loop-independent dependence's
// pin).
func level(w write, r *depend.Ref, iter []int) (int, bool) {
	common := 0
	for common < len(w.ref.Nest) && common < len(r.Nest) && w.ref.Nest[common] == r.Nest[common] {
		common++
	}
	for k := 0; k < common; k++ {
		if w.iter[k] != iter[k] {
			return k + 1, true
		}
	}
	return common, false
}
