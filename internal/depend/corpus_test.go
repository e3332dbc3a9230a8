package depend_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
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
