package report

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fortd"
	"fortd/internal/profile"
	"fortd/internal/trace/analyze"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/distill_digest.txt")

func sha(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b))[:32] }

// distillDigest runs one cell traced and renders every view of the
// run's distillation as one line of hashes: the profile artifact's
// canonical bytes, its cost-ranked table, the analyze text, the trace
// summary, and the HTML report section with the remarks stripped. The
// report builds its section from a run of its own, which takes no
// machine configuration or fault plan; its hash covers the
// configurations a report can show.
func distillDigest(t *testing.T, cell, src string, init map[string][]float64, p int, plan *fortd.FaultPlan) string {
	t.Helper()
	opts := fortd.DefaultOptions()
	prog, err := fortd.Compile(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fortd.DefaultMachine(p)
	cfg.LinkDepth = 512
	tr := fortd.NewTrace()
	if _, err := fortd.NewRunner(fortd.WithMachine(cfg), fortd.WithInit(init),
		fortd.WithTrace(tr), fortd.WithFaults(plan)).Run(prog); err != nil {
		t.Fatal(err)
	}
	meta := profile.Meta{ProgramHash: fortd.ProgramID(src, opts), Workload: cell, P: p, Backend: "des"}
	if plan != nil {
		meta.FaultSeed = plan.Seed
	}
	pf := profile.FromEvents(tr.Events(), meta)
	if pf == nil {
		t.Fatal("traced run produced no profile")
	}
	artifact, err := pf.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var top, analysis, text, html bytes.Buffer
	if err := pf.WriteTop(&top, 0); err != nil {
		t.Fatal(err)
	}
	if err := analyze.Analyze(tr.Events()).WriteText(&analysis); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	sec, err := BuildSection(context.Background(), cell, src, init, opts, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	sec.Remarks = nil
	if err := Write(&html, cell, "", sec); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("artifact=%s top=%s analyze=%s text=%s report=%s",
		sha(artifact), sha(top.Bytes()), sha(analysis.Bytes()), sha(text.Bytes()), sha(html.Bytes()))
}

// TestDistillDigest holds every view of a run's distillation to the
// bytes the three nested summaries produced (trace.ComputeProfile →
// analyze.Analyze → profile.FromAnalysis, plus the trace summary's own
// aggregation): testdata/golden/distill_digest.txt was recorded on the
// last tree that had them and is not regenerated for a change to the
// distillation. The cells are TestBackendDifferential's matrix, read
// back from its run_digest.txt so the two cannot drift apart.
func TestDistillDigest(t *testing.T) {
	workloads := []struct {
		name string
		src  func(p int) string
		init func(src string) map[string][]float64
		plan *fortd.FaultPlan
	}{
		{"jacobi", func(p int) string { return fortd.Jacobi2DSrc(64, 3, p) }, fortd.RampInit, nil},
		{"dgefa", func(p int) string { return fortd.DgefaSrc(64, p) },
			func(string) map[string][]float64 {
				return map[string][]float64{"a": fortd.DgefaMatrix(64)}
			}, nil},
		{"dyndist", func(p int) string { return fortd.Fig15Src(3, p) }, fortd.RampInit, nil},
		{"reduction", func(p int) string { return fortd.ReductionSrc(128, p) }, fortd.RampInit, nil},
		{"jacobi_straggler", func(p int) string { return fortd.Jacobi2DSrc(64, 3, p) }, fortd.RampInit,
			&fortd.FaultPlan{Seed: 11, DelayProb: 0.2, DelayMax: 40, Stragglers: map[int]float64{0: 2.0}}},
	}
	golden := filepath.Join("..", "..", "testdata", "golden")
	var lines []string
	for _, w := range workloads {
		for _, p := range []int{1, 3, 6, 16, 64} {
			cell := fmt.Sprintf("%s/p%d", w.name, p)
			src := w.src(p)
			lines = append(lines, cell+" "+distillDigest(t, cell, src, w.init(src), p, w.plan))
		}
	}
	path := filepath.Join(golden, "distill_digest.txt")
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for i, line := range lines {
		if i >= len(wantLines) || line != wantLines[i] {
			w := "(no line)"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Errorf("distillation differs from %s:\n got  %s\n want %s", path, line, w)
		}
	}
	runs, err := os.ReadFile(filepath.Join(golden, "run_digest.txt"))
	if err != nil {
		t.Fatal(err)
	}
	runLines := strings.Split(strings.TrimSuffix(string(runs), "\n"), "\n")
	if len(runLines) != len(lines) {
		t.Fatalf("run_digest.txt has %d cells, this matrix %d", len(runLines), len(lines))
	}
	for i, line := range runLines {
		if cell, _, _ := strings.Cut(line, " "); !strings.HasPrefix(lines[i], cell+" ") {
			t.Errorf("cell %d is %s in run_digest.txt, %.24s here", i, cell, lines[i])
		}
	}
}
