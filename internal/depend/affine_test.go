package depend

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"fortd/internal/ast"
	"fortd/internal/parser"
)

// coefMap renders a form over nest as the oracle's name → coefficient
// map (zero entries dropped on both sides before comparing).
func coefMap(a *Affine, nest []*ast.Do) map[string]int {
	m := map[string]int{}
	for d, c := range a.Loop {
		if c != 0 {
			m[nest[d].Var] += c
		}
	}
	for _, t := range a.Terms {
		m[t.Name] += t.Coef
	}
	return m
}

func nonzero(m map[string]int) map[string]int {
	out := map[string]int{}
	for k, v := range m {
		if v != 0 {
			out[k] = v
		}
	}
	return out
}

// CheckForm compares one linearization with the map-based oracle.
func CheckForm(e ast.Expr, env ast.Env, nest []*ast.Do) error {
	got, ok := Linearize(e, env, nest)
	want, wantOK := oldLinearize(e, env)
	if ok != wantOK {
		return fmt.Errorf("%s: affine = %v, oracle %v", e, ok, wantOK)
	}
	if !ok {
		return nil
	}
	if got.Const != want.konst || !reflect.DeepEqual(coefMap(&got, nest), nonzero(want.coef)) {
		return fmt.Errorf("%s: form %+v, oracle %v + %d", e, got, want.coef, want.konst)
	}
	if n := len(got.Loop); n > 0 && got.Loop[n-1] == 0 {
		return fmt.Errorf("%s: Loop %v not trimmed", e, got.Loop)
	}
	for i, t := range got.Terms {
		if t.Coef == 0 || (i > 0 && got.Terms[i-1].Name >= t.Name) {
			return fmt.Errorf("%s: Terms %v not normalized", e, got.Terms)
		}
	}
	return nil
}

// depStrings renders Deps with references as indices into Refs, so
// results of separate analyses (separate Ref pointers) compare.
func depStrings(in *depList) []string {
	idx := map[*Ref]int{}
	for i, r := range in.Refs {
		idx[r] = i
	}
	out := make([]string, len(in.Deps))
	for i, d := range in.Deps {
		out[i] = fmt.Sprintf("%d->%d %v L%d d%d %v", idx[d.Src], idx[d.Snk], d.Kind, d.Level, d.Distance, d.Known)
	}
	return out
}

// CheckAnalysis compares Analyze with the oracle on one procedure:
// every memoised subscript form, the dependence list its pair loop
// emits, order included, and each reference's sink level.
func CheckAnalysis(proc *ast.Procedure, env ast.Env) error {
	got := Analyze(ast.NewIndex(proc), env)
	for _, r := range got {
		for d, sub := range r.Expr.Subs {
			if err := CheckForm(sub, env, r.Nest); err != nil {
				return fmt.Errorf("%s: %v", proc.Name, err)
			}
			memo, _ := Linearize(sub, env, r.Nest)
			if !reflect.DeepEqual(memo, r.Subs[d].Affine) {
				return fmt.Errorf("%s: %s memoised as %+v, linearizes to %+v", proc.Name, sub, r.Subs[d].Affine, memo)
			}
		}
	}
	want := oldAnalyze(proc, env)
	g, w := depStrings(analyzeDeps(proc, env)), depStrings(want)
	if !reflect.DeepEqual(g, w) {
		return fmt.Errorf("%s: Deps differ from the oracle's:\n got  %v\n want %v", proc.Name, g, w)
	}
	for _, r := range got {
		deepest := -1
		for _, d := range want.Deps {
			if d.Kind == True && d.Snk.Expr == r.Expr {
				deepest = max(deepest, pinOf(d))
			}
		}
		if r.SinkLevel != deepest {
			return fmt.Errorf("%s: SinkLevel(%s) = %d, scan of the oracle's Deps %d", proc.Name, r.Expr, r.SinkLevel, deepest)
		}
	}
	return nil
}

// TestFormsAreValues is the aliasing hazard the map form had
// (linearize's OpAdd wrote into its operand's map, which was safe only
// while every result was thrown away): forms kept in a memo must come
// out of any number of uses unchanged, and equal work must give equal
// results.
func TestFormsAreValues(t *testing.T) {
	u := mustParseProc(t, `
      SUBROUTINE S(A, m)
      REAL A(100)
      do i = 1,90
        A(i+1) = A(i+m) + A(i+1)
      enddo
      END
`)
	refs := CollectRefs(ast.NewIndex(u), nil)
	snapshot := make([]Affine, len(refs))
	for i, r := range refs {
		snapshot[i] = Affine{Const: r.Subs[0].Const,
			Loop:  append([]int(nil), r.Subs[0].Loop...),
			Terms: append([]Term(nil), r.Subs[0].Terms...)}
	}
	first := depStrings(analyzeDeps(u, nil))
	info := &depList{Refs: refs}
	for round := 0; round < 3; round++ {
		info.Deps = nil
		for i, a := range refs {
			for _, b := range refs[i+1:] {
				if a.IsWrite || b.IsWrite {
					testPair(a, b, info.add)
				}
			}
			d1 := a.Subs[0].Minus(&refs[1].Subs[0].Affine)
			d2 := a.Subs[0].Minus(&refs[1].Subs[0].Affine)
			if !reflect.DeepEqual(d1, d2) {
				t.Fatalf("Minus twice: %+v then %+v", d1, d2)
			}
		}
		if got := depStrings(info); !reflect.DeepEqual(got, first) {
			t.Fatalf("round %d over one memo: %v, first analysis %v", round, got, first)
		}
	}
	for i, r := range refs {
		if !reflect.DeepEqual(r.Subs[0].Affine, snapshot[i]) {
			t.Errorf("ref %d: memo %+v changed from %+v", i, r.Subs[0].Affine, snapshot[i])
		}
		again, _ := Linearize(r.Expr.Subs[0], nil, r.Nest)
		if !reflect.DeepEqual(again, snapshot[i]) {
			t.Errorf("ref %d: %s linearizes to %+v, first time %+v", i, r.Expr.Subs[0], again, snapshot[i])
		}
	}
	// i+1 is {Const 1, Loop [1]}; i+m adds the symbolic term
	if want := (Affine{Const: 1, Loop: []int{1}}); !reflect.DeepEqual(snapshot[0], want) {
		t.Errorf("i+1 = %+v", snapshot[0])
	}
	if want := (Affine{Loop: []int{1}, Terms: []Term{{"m", 1}}}); !reflect.DeepEqual(snapshot[1], want) {
		t.Errorf("i+m = %+v", snapshot[1])
	}
}

const tripleNestMIV = `
      SUBROUTINE T(A, B, n, m)
      REAL A(100,100), B(100)
      do i = 1,n
        do j = 1,n
          do k = 1,n
            A(i+j,k) = A(i+2*j-k,k-1) + B(2*i+4*j+k)
            B(i+j+k) = A(j,i) + B(m)
          enddo
        enddo
      enddo
      do i = 1,n
        B(i) = B(i+1) + A(i,i)
      enddo
      END
`

// TestAnalyzeDeterministic: the map form built its list of involved
// loop levels by ranging over a map, so its order varied from run to
// run (harmless only because the MIV branch is symmetric). The dense
// form walks levels outermost first; Deps, order included, must be the
// same on every run.
func TestAnalyzeDeterministic(t *testing.T) {
	srcs := map[string]string{"triple": tripleNestMIV}
	for _, f := range []string{"dgefa.f", "fig4.f"} {
		b, err := os.ReadFile("../../testdata/" + f)
		if err != nil {
			t.Fatal(err)
		}
		srcs[f] = string(b)
	}
	for name, src := range srcs {
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		total := 0
		for _, u := range prog.Units {
			first := depStrings(analyzeDeps(u, nil))
			total += len(first)
			for run := 1; run < 50; run++ {
				if got := depStrings(analyzeDeps(u, nil)); !reflect.DeepEqual(got, first) {
					t.Fatalf("%s/%s run %d:\n%s\nfirst run:\n%s", name, u.Name, run,
						strings.Join(got, "\n"), strings.Join(first, "\n"))
				}
			}
			if err := CheckAnalysis(u, nil); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
		if total == 0 {
			t.Errorf("%s: no dependences at all", name)
		}
	}
}
