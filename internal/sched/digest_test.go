package sched

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"fortd/internal/ast"
	"fortd/internal/explain"
	"fortd/internal/machine"
	"fortd/internal/parser"
	"fortd/internal/spmd"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/sched_digest.txt")

// digestSeeds is the number of generated programs the digest and the
// metamorphic test cover.
const digestSeeds = 400

var transformNames = []string{"overlap-redundant", "overlap-lookahead", "overlap-chain", "overlap-halo", "overlap-bcast"}

func sha(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b))[:32] }

// scheduled parses src and applies the pass to a program that shares
// the parsed one's units, and fails if the parsed program prints
// differently afterwards: the pass must write no unit or statement it
// did not create.
func scheduled(t testing.TB, src string) (*ast.Program, []explain.Remark, int) {
	t.Helper()
	in, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	before := ast.Print(in)
	prog := ast.NewProgram(slices.Clone(in.Units))
	ec := explain.New()
	n := Apply(prog, ec)
	if after := ast.Print(in); after != before {
		t.Fatalf("Apply wrote the program it was given:\n%s\n--- now\n%s", before, after)
	}
	return prog, ec.Remarks(), n
}

// TestSchedDigest holds the pass to what it did on the tree before it
// was rebuilt as four transforms over one view: for each generated
// program, the listing after Apply, the remarks and the applied count.
// testdata/golden/sched_digest.txt was recorded on that tree and is not
// regenerated for a restructuring of the pass; it was regenerated once
// when the guard merge became the pass's last step, which moved the
// listing and remarks of 221 programs and no applied count. It runs under -short
// too. The generator must keep exercising every transform in both
// directions, so the coverage floor is part of the test.
func TestSchedDigest(t *testing.T) {
	applied, missed := map[string]int{}, map[string]int{}
	var got strings.Builder
	for seed := int64(1); seed <= digestSeeds; seed++ {
		src, rebcasts := genProgram(seed, 4)
		prog, remarks, n := scheduled(t, src)
		var text bytes.Buffer
		if err := explain.WriteText(&text, remarks); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%03d listing=%s remarks=%s applied=%d\n", seed, sha([]byte(ast.Print(prog))), sha(text.Bytes()), n)
		for _, name := range transformNames {
			if hasRemark(remarks, explain.Applied, name, "") {
				applied[name]++
			}
			if hasRemark(remarks, explain.Missed, name, "") {
				missed[name]++
			}
		}
		// a re-broadcast that stays is not remarked on: count the seeds
		// that kept at least one of the candidates they drew
		kept := rebcasts
		for _, r := range remarks {
			if r.Kind == explain.Applied && r.Name == "overlap-redundant" {
				kept--
			}
		}
		if kept > 0 {
			missed["overlap-redundant"]++
		}
	}
	for _, name := range transformNames {
		if applied[name] < 50 || missed[name] < 50 {
			t.Errorf("%s applied in %d seeds and missed in %d: the generator must reach 50 of each", name, applied[name], missed[name])
		}
	}
	path := filepath.Join("..", "..", "testdata", "golden", "sched_digest.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0644); err != nil {
			t.Fatal(err)
		}
		t.Logf("coverage: applied %v missed %v", applied, missed)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("digest has %d lines, %s has %d", len(gotLines), path, len(wantLines))
	}
	bad := 0
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			if bad++; bad <= 5 {
				t.Errorf("seed %d:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
			}
		}
	}
	if bad > 5 {
		t.Errorf("... and %d more seeds differ", bad-5)
	}
}

// checkEquivalent runs the program of (seed, p) as generated and as
// rescheduled and compares what a user of the run can see: the result
// arrays, and the message and word counts. Only the redundant-broadcast
// elimination may change the traffic, and only downwards.
func checkEquivalent(t testing.TB, seed int64, p int) {
	t.Helper()
	src, _ := genProgram(seed, p)
	blocking, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("seed %d: %v\n%s", seed, err, src)
	}
	overlapped, remarks, _ := scheduled(t, src)
	cfg := machine.DefaultConfig(p)
	opts := spmd.Options{Init: rampInit(blocking)}
	want, err := spmd.Lower(blocking, cfg.P, nil, nil, nil).Run(context.Background(), cfg, opts)
	if err != nil {
		t.Fatalf("seed %d p=%d: generated program does not run: %v\n%s", seed, p, err, src)
	}
	got, err := spmd.Lower(overlapped, cfg.P, nil, nil, nil).Run(context.Background(), cfg, opts)
	if err != nil {
		t.Fatalf("seed %d p=%d: rescheduled program does not run: %v\n%s", seed, p, err, ast.Print(overlapped))
	}
	if !reflect.DeepEqual(got.Arrays, want.Arrays) {
		t.Errorf("seed %d p=%d: arrays differ after rescheduling: r = %v, blocking %v\n%s",
			seed, p, got.Arrays["r"], want.Arrays["r"], ast.Print(overlapped))
	}
	if hasRemark(remarks, explain.Applied, "overlap-redundant", "") {
		if got.Stats.Messages >= want.Stats.Messages || got.Stats.Words >= want.Stats.Words {
			t.Errorf("seed %d p=%d: a broadcast was removed, yet msgs/words %d/%d, blocking %d/%d",
				seed, p, got.Stats.Messages, got.Stats.Words, want.Stats.Messages, want.Stats.Words)
		}
	} else if got.Stats.Messages != want.Stats.Messages || got.Stats.Words != want.Stats.Words {
		t.Errorf("seed %d p=%d: msgs/words %d/%d, blocking %d/%d",
			seed, p, got.Stats.Messages, got.Stats.Words, want.Stats.Messages, want.Stats.Words)
	}
}

// rampInit seeds every constant-sized array of prog's main program with
// 1, 2, 3, ... as the root package's RampInit does (which this package
// cannot import), so both runs start from data that is nowhere zero.
func rampInit(prog *ast.Program) map[string][]float64 {
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
		init[sym.Name] = make([]float64, size)
		for i := range init[sym.Name] {
			init[sym.Name][i] = float64(i + 1)
		}
	}
	return init
}

// TestSchedMetamorphic: the digest's programs compute the same arrays
// with the same traffic before and after the pass, at two machine
// sizes. (-short keeps every eighth seed.)
func TestSchedMetamorphic(t *testing.T) {
	step := int64(1)
	if testing.Short() {
		step = 8
	}
	for seed := int64(1); seed <= digestSeeds; seed += step {
		for _, p := range []int{3, 4} {
			checkEquivalent(t, seed, p)
		}
	}
}

// FuzzSchedEquivalence extends the metamorphic test to seeds nobody
// recorded.
func FuzzSchedEquivalence(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, false)
	}
	f.Fuzz(func(t *testing.T, seed int64, three bool) {
		p := 4
		if three {
			p = 3
		}
		checkEquivalent(t, seed, p)
	})
}
