package fortd

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"fortd/internal/progen"
)

// digestCase is one program of the compile digest: everything the
// compiler emits for it (listing, explain remarks) and the three
// figures of the run that follow from the listing alone.
type digestCase struct {
	name string
	src  string
	run  bool
}

// digestCases enumerates testdata, the workload generators (including
// the benchmark's five configurations, the big ones compile-only) and
// 200 random programs, in a fixed order.
func digestCases(t testing.TB) []digestCase {
	var cases []digestCase
	files, err := filepath.Glob("testdata/*.f")
	if err != nil || len(files) < 5 {
		t.Fatalf("testdata: %v %v", files, err)
	}
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		// deadlock.f is the shipped sample that must not terminate
		cases = append(cases, digestCase{filepath.Base(f), string(b), filepath.Base(f) != "deadlock.f"})
	}
	cases = append(cases,
		digestCase{"gen/fig1", Fig1Src(100, 4), true},
		digestCase{"gen/fig4", Fig4Src(20, 4), true},
		digestCase{"gen/fig15", Fig15Src(5, 4), true},
		digestCase{"gen/fig15scaled", Fig15ScaledSrc(64, 3, 8), true},
		digestCase{"gen/dgefa", DgefaSrc(32, 4), true},
		digestCase{"gen/dgefa_hand", DgefaHandSrc(16, 4), false},
		digestCase{"gen/jacobi1d", Jacobi1DSrc(64, 3, 8), true},
		digestCase{"gen/jacobi2d", Jacobi2DSrc(16, 3, 4), true},
		digestCase{"gen/adi_static", ADISrc(16, 2, 4, false), true},
		digestCase{"gen/adi_dynamic", ADISrc(16, 2, 4, true), true},
		digestCase{"gen/synth", SyntheticProcsSrc(8, 4, 32, 4), true},
		digestCase{"gen/reduction", ReductionSrc(60, 6), true},
		digestCase{"bench/dgefa_p1024", DgefaSrc(128, 1024), false},
		digestCase{"bench/jacobi2d_p16", Jacobi2DSrc(256, 10, 16), false},
		digestCase{"bench/dyndist_p256", Fig15ScaledSrc(4096, 3, 256), false},
		digestCase{"bench/compile_synth256", SyntheticProcsSrc(256, 8, 32, 4), true},
	)
	for seed := int64(1); seed <= 200; seed++ {
		g := &progen.Gen{Rng: rand.New(rand.NewSource(seed)), N: 24 + int(seed%3)*8, P: []int{3, 4, 6}[seed%3]}
		cases = append(cases, digestCase{fmt.Sprintf("progen/%03d", seed), g.Generate(), true})
	}
	return cases
}

func sha(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b))[:32] }

// digestLine compiles one case under opts and renders its digest. A
// compile the strategy rejects is part of the digest too.
func digestLine(t testing.TB, c digestCase, opts Options) string {
	ex := NewExplain()
	opts.Explain = ex
	p, err := Compile(c.src, opts)
	if err != nil {
		return "compile-error=" + sha([]byte(err.Error()))
	}
	var remarks bytes.Buffer
	if err := ex.WriteText(&remarks); err != nil {
		t.Fatal(err)
	}
	line := fmt.Sprintf("listing=%s remarks=%s", sha([]byte(p.Listing())), sha(remarks.Bytes()))
	if !c.run {
		return line
	}
	res, err := NewRunner(WithInit(RampInit(c.src))).Run(p)
	if err != nil {
		return line + " run-error=" + sha([]byte(err.Error()))
	}
	return line + fmt.Sprintf(" msgs=%d words=%d time=%016x",
		res.Stats.Messages, res.Stats.Words, math.Float64bits(res.Stats.Time))
}

var digestStrategies = []struct {
	name string
	s    Strategy
}{{"delayed", Interprocedural}, {"immediate", Immediate}, {"runtime", RuntimeResolution}}

// TestCompileDigest holds everything the compiler emits — listing
// bytes, explain remarks and the messages/words/virtual time of the
// run — to the digest recorded on the tree before the per-procedure
// pass was rewritten (PR 14), for testdata, the workload generators and
// 200 random programs × three strategies × overlap on/off. Two more
// lanes per program, Jobs=8 and a warm summary cache, must reproduce
// the sequential cold line. A compiler change that is meant to move
// output regenerates the file with -update and says so.
func TestCompileDigest(t *testing.T) {
	path := filepath.Join("testdata", "golden", "compile_digest.txt")
	var got strings.Builder
	for _, c := range digestCases(t) {
		for _, st := range digestStrategies {
			for _, overlap := range []bool{true, false} {
				if strings.HasPrefix(c.name, "bench/") && (st.s != Interprocedural || !overlap) {
					continue
				}
				opts := DefaultOptions().WithOverlap(overlap)
				opts.Strategy = st.s
				line := digestLine(t, c, opts)
				fmt.Fprintf(&got, "%s %s overlap=%v %s\n", c.name, st.name, overlap, line)
				if testing.Short() {
					continue
				}
				// the lanes below compile only: their listing and remarks
				// must be the cold sequential ones
				cc := c
				cc.run = false
				want := digestLine(t, cc, opts)
				par := opts
				par.Jobs = 8
				if l := digestLine(t, cc, par); l != want {
					t.Errorf("%s %s overlap=%v: Jobs=8 emits %s, sequential %s", c.name, st.name, overlap, l, want)
				}
				warm := opts
				warm.Cache = NewSummaryCache()
				digestLine(t, cc, warm)
				if l := digestLine(t, cc, warm); l != want {
					t.Errorf("%s %s overlap=%v: warm cache emits %s, cold %s", c.name, st.name, overlap, l, want)
				}
			}
		}
	}
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(wantBytes), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("digest has %d lines, %s has %d", len(gotLines), path, len(wantLines))
	}
	bad := 0
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			if bad++; bad <= 10 {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... and %d more lines differ", bad-10)
	}
}
