package fortd

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fortd/internal/trace/analyze"
)

// tracedRun compiles src and runs it with a fresh tracer attached to
// the run only, returning the tracer.
func tracedRun(t *testing.T, src string, init map[string][]float64) *Trace {
	t.Helper()
	prog, err := Compile(src, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrace()
	if _, err := NewRunner(WithInit(init), WithTrace(tr)).Run(prog); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestGoldenAnalyzeDgefa pins the analyze layer's text rendering — the
// P×P traffic matrix and the hotspot table — for the §9 dgefa case
// study at P=4. The run is virtual-time deterministic, so any diff is
// a real behavior change in the simulator or the analytics.
func TestGoldenAnalyzeDgefa(t *testing.T) {
	tr := tracedRun(t, DgefaSrc(32, 4), map[string][]float64{"a": DgefaMatrix(32)})
	a := analyze.Analyze(tr.Events())
	if a == nil {
		t.Fatal("Analyze returned nil for a traced run")
	}
	var buf bytes.Buffer
	if err := a.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden", "dgefa_analyze.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestGoldenAnalyze -update` to create)", err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("analysis differs from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestStatsConservation checks message conservation on real workloads:
// every message sent is eventually consumed by a Recv — a remap's too,
// which are real messages (RemapMsgs is 0 in a compiled run) — the
// machine-wide Received aggregate matches the per-processor sum, and each
// row of the traced run's traffic grid re-adds to its sender group's
// summed totals (at P=128 a group is two processors).
func TestStatsConservation(t *testing.T) {
	cases := []struct {
		name string
		src  string
		init map[string][]float64
	}{
		{"jacobi", Jacobi2DSrc(16, 3, 4), map[string][]float64{"a": Ramp(16 * 16)}},
		{"dgefa", DgefaSrc(32, 4), map[string][]float64{"a": DgefaMatrix(32)}},
		{"dyndist", Fig15Src(5, 4), map[string][]float64{"X": Ramp(100)}},
		{"dgefa_p128", DgefaSrc(128, 128), map[string][]float64{"a": DgefaMatrix(128)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := Compile(tc.src, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			tr := NewTrace()
			res, err := NewRunner(WithInit(tc.init), WithTrace(tr)).Run(prog)
			if err != nil {
				t.Fatal(err)
			}
			s := res.Stats
			var sent, remap, recvd int64
			for _, p := range s.PerProc {
				sent += p.Sent
				remap += p.RemapMsgs
				recvd += p.Received
			}
			if sent != recvd || remap != 0 {
				t.Errorf("conservation: sum(Sent) = %d, sum(Received) = %d, sum(RemapMsgs) = %d (want 0)", sent, recvd, remap)
			}
			if s.Received != recvd {
				t.Errorf("Stats.Received = %d, per-proc sum = %d", s.Received, recvd)
			}
			// the grid rows must re-add to each sender group's totals
			mx := analyze.Analyze(tr.Events()).Matrix
			if mx.P != len(s.PerProc) || mx.N != min(mx.P, 64) {
				t.Fatalf("grid is %d×%d for %d processors, the run has %d", mx.N, mx.N, mx.P, len(s.PerProc))
			}
			groupSent, groupWords := make([]int64, mx.N), make([]int64, mx.N)
			for pid, ps := range s.PerProc {
				groupSent[mx.Group(pid)] += ps.Sent
				groupWords[mx.Group(pid)] += ps.Words
			}
			for g := range groupSent {
				var rowMsgs, rowWords int64
				for d := range mx.Msgs[g] {
					rowMsgs += mx.Msgs[g][d]
					rowWords += mx.Words[g][d]
				}
				if rowMsgs != groupSent[g] || rowWords != groupWords[g] {
					t.Errorf("group %s: traffic row sums (%d msgs, %d words) != group totals (%d, %d)",
						mx.Label(g), rowMsgs, rowWords, groupSent[g], groupWords[g])
				}
			}
		})
	}
}

// TestDeterministicExport runs the same traced dgefa program twice and
// requires byte-identical text and JSONL exports: event append order
// varies with goroutine scheduling, so the exporters must sort by
// virtual time before rendering.
func TestDeterministicExport(t *testing.T) {
	render := func() (string, string) {
		tr := tracedRun(t, DgefaSrc(32, 4), map[string][]float64{"a": DgefaMatrix(32)})
		var text, jsonl bytes.Buffer
		if err := tr.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		if err := tr.WriteJSONL(&jsonl); err != nil {
			t.Fatal(err)
		}
		return text.String(), jsonl.String()
	}
	text1, jsonl1 := render()
	text2, jsonl2 := render()
	if text1 != text2 {
		t.Error("two identical runs produced different WriteText output")
	}
	if jsonl1 != jsonl2 {
		t.Error("two identical runs produced different WriteJSONL output")
	}
	if !strings.Contains(jsonl1, `"kind":"send"`) {
		t.Error("JSONL export has no send events")
	}
}
