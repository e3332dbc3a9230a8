package fortd

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fortd/internal/profile"
	"fortd/internal/trace/analyze"
)

// writePage renders sections into one self-contained HTML document.
func writePage(t *testing.T, title string, sections ...*analyze.Section) string {
	t.Helper()
	var buf bytes.Buffer
	if err := analyze.WriteHTML(&buf, &analyze.Page{Title: title, Sections: sections}); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestReportHTML renders the full self-contained report for jacobi and
// dgefa and checks that every visualization the report promises is
// present and that the document references no external assets.
func TestReportHTML(t *testing.T) {
	cases := []struct {
		name string
		src  string
		init map[string][]float64
	}{
		{"jacobi", Jacobi2DSrc(16, 3, 4), map[string][]float64{"a": Ramp(16 * 16)}},
		{"dgefa", DgefaSrc(32, 4), map[string][]float64{"a": DgefaMatrix(32)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sec, err := PageSection(context.Background(), tc.name, tc.src, tc.init, DefaultOptions(), []int{1, 2, 4}, 0)
			if err != nil {
				t.Fatal(err)
			}
			html := writePage(t, tc.name, sec)
			for _, id := range []string{
				`id="heatmap"`, `id="hotspots"`, `id="timeline"`,
				`id="profile"`, `id="histogram"`, `id="speedup"`,
			} {
				if !strings.Contains(html, id) {
					t.Errorf("report lacks %s", id)
				}
			}
			for _, ext := range []string{"http://", "https://", "<script src", "<link "} {
				if strings.Contains(html, ext) {
					t.Errorf("report references an external asset (%q)", ext)
				}
			}
			if !strings.HasPrefix(html, "<!DOCTYPE html>") {
				t.Error("report does not start with a doctype")
			}
			if !strings.HasSuffix(strings.TrimSpace(html), "</html>") {
				t.Error("report is truncated (no closing </html>)")
			}
		})
	}
}

// TestReportBoundedAtScale: the §9 case study at P=1024 reports on a
// grid of at most 64×64 processor groups, so its page is the size of a
// 64-processor page plus the per-processor bars, not a P×P heatmap.
func TestReportBoundedAtScale(t *testing.T) {
	sec, err := PageSection(context.Background(), "dgefa", DgefaSrc(128, 1024),
		map[string][]float64{"a": DgefaMatrix(128)}, DefaultOptions(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	html := writePage(t, "dgefa", sec)
	_, heatmap, ok := strings.Cut(html, `<svg id="heatmap"`)
	if !ok {
		t.Fatal("report lacks the heatmap")
	}
	heatmap, _, _ = strings.Cut(heatmap, "</svg>")
	if cells := strings.Count(heatmap, "<rect"); cells > 4096 {
		t.Errorf("heatmap has %d cells, want at most 64×64", cells)
	}
	if !strings.Contains(heatmap, "p1008-p1023") {
		t.Error("heatmap does not label the last group by its first and last processor")
	}
	if len(html) > 2<<20 {
		t.Errorf("report is %d bytes, want at most 2 MB", len(html))
	}
}

// distillDigest runs one cell traced and renders every view of the
// run's distillation as one line of hashes: the profile artifact's
// canonical bytes, its cost-ranked table, the analyze text, the trace
// summary, and the HTML report section with the remarks stripped. The
// report builds its section from a run of its own, which takes no
// machine configuration or fault plan; its hash covers the
// configurations a report can show.
func distillDigest(t *testing.T, cell, src string, init map[string][]float64, p int, plan *FaultPlan) string {
	t.Helper()
	opts := DefaultOptions()
	prog, err := Compile(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultMachine(p)
	cfg.LinkDepth = 512
	tr := NewTrace()
	if _, err := NewRunner(WithMachine(cfg), WithInit(init),
		WithTrace(tr), WithFaults(plan)).Run(prog); err != nil {
		t.Fatal(err)
	}
	meta := profile.Meta{ProgramHash: ProgramID(src, opts), Workload: cell, P: p, Backend: "des"}
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
	var top, analysis, text bytes.Buffer
	if err := pf.WriteTop(&top, 0); err != nil {
		t.Fatal(err)
	}
	if err := analyze.Analyze(tr.Events()).WriteText(&analysis); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	sec, err := PageSection(context.Background(), cell, src, init, opts, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	sec.Remarks = nil
	html := writePage(t, cell, sec)
	return fmt.Sprintf("artifact=%s top=%s analyze=%s text=%s report=%s",
		sha(artifact), sha(top.Bytes()), sha(analysis.Bytes()), sha(text.Bytes()), sha([]byte(html)))
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
		plan *FaultPlan
	}{
		{"jacobi", func(p int) string { return Jacobi2DSrc(64, 3, p) }, RampInit, nil},
		{"dgefa", func(p int) string { return DgefaSrc(64, p) },
			func(string) map[string][]float64 {
				return map[string][]float64{"a": DgefaMatrix(64)}
			}, nil},
		{"dyndist", func(p int) string { return Fig15Src(3, p) }, RampInit, nil},
		{"reduction", func(p int) string { return ReductionSrc(128, p) }, RampInit, nil},
		{"jacobi_straggler", func(p int) string { return Jacobi2DSrc(64, 3, p) }, RampInit,
			&FaultPlan{Seed: 11, DelayProb: 0.2, DelayMax: 40, Stragglers: map[int]float64{0: 2.0}}},
	}
	golden := filepath.Join("testdata", "golden")
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
