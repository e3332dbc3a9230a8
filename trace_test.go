package fortd

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fortd/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRunTrace compiles src, runs it with a trace attached to the
// run only (compile phases use wall-clock time and would make the
// output nondeterministic), and compares the text summary against the
// golden file.
func goldenRunTrace(t *testing.T, name, src string, init map[string][]float64) {
	t.Helper()
	prog, err := Compile(src, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrace()
	if _, err := NewRunner(WithInit(init), WithTrace(tr)).Run(prog); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden", name+".golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestGolden -update` to create)", err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("trace summary differs from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

func TestGoldenTraceJacobi(t *testing.T) {
	goldenRunTrace(t, "jacobi_trace", Jacobi2DSrc(16, 3, 4),
		map[string][]float64{"a": Ramp(16 * 16)})
}

func TestGoldenTraceDgefa(t *testing.T) {
	goldenRunTrace(t, "dgefa_trace", DgefaSrc(32, 4),
		map[string][]float64{"a": DgefaMatrix(32)})
}

// TestTraceWordsMatchStats checks the headline acceptance criterion:
// the per-message word totals in the trace sum exactly to Stats.Words,
// on a stencil workload, a remap-heavy workload, and dgefa.
func TestTraceWordsMatchStats(t *testing.T) {
	cases := []struct {
		name string
		src  string
		init map[string][]float64
	}{
		{"jacobi", Jacobi2DSrc(16, 3, 4), map[string][]float64{"a": Ramp(16 * 16)}},
		{"adi-dynamic", ADISrc(16, 2, 4, true), map[string][]float64{"a": Ramp(16 * 16)}},
		{"dgefa", DgefaSrc(32, 4), map[string][]float64{"a": DgefaMatrix(32)}},
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
			if res.Stats.Words == 0 {
				t.Fatal("workload moved no words")
			}
			if got := trace.Distill(tr.Events()).Total.Words; got != res.Stats.Words {
				t.Errorf("trace words = %d, Stats.Words = %d", got, res.Stats.Words)
			}
			// message events must also match the message count
			var msgs int64
			for _, ev := range tr.Events() {
				switch ev.Kind {
				case trace.KindSend:
					msgs++
				case trace.KindRemap:
					msgs += ev.Value
				}
			}
			if msgs != res.Stats.Messages {
				t.Errorf("trace messages = %d, Stats.Messages = %d", msgs, res.Stats.Messages)
			}
		})
	}
}

// TestTraceAttribution checks that at least 95% of traced messages
// carry the source procedure that placed the communication.
func TestTraceAttribution(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
		init map[string][]float64
	}{
		{"jacobi", Jacobi2DSrc(16, 3, 4), map[string][]float64{"a": Ramp(16 * 16)}},
		{"dgefa", DgefaSrc(32, 4), map[string][]float64{"a": DgefaMatrix(32)}},
		{"fig4", Fig4Src(20, 4), map[string][]float64{"X": Ramp(400), "Y": Ramp(400)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := Compile(tc.src, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			tr := NewTrace()
			if _, err := NewRunner(WithInit(tc.init), WithTrace(tr)).Run(prog); err != nil {
				t.Fatal(err)
			}
			var total, attributed int64
			for _, ev := range tr.Events() {
				if ev.Kind != trace.KindSend && ev.Kind != trace.KindRemap {
					continue
				}
				w := int64(1)
				if ev.Kind == trace.KindRemap {
					w = ev.Value
				}
				total += w
				if ev.Proc != "" {
					attributed += w
				}
			}
			if total == 0 {
				t.Fatal("no messages traced")
			}
			if pct := 100 * float64(attributed) / float64(total); pct < 95 {
				t.Errorf("attribution = %.1f%% (%d/%d), want >= 95%%", pct, attributed, total)
			}
		})
	}
}

// TestTraceChromeEndToEnd checks the exporter on a real run: valid
// JSON, monotone timestamps per (pid, tid), and exact word totals.
func TestTraceChromeEndToEnd(t *testing.T) {
	prog, err := Compile(Jacobi2DSrc(16, 3, 4), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrace()
	res, err := NewRunner(WithInit(map[string][]float64{"a": Ramp(16 * 16)}), WithTrace(tr)).Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			PID  int     `json:"pid"`
			TID  int     `json:"tid"`
			Args struct {
				Words int `json:"words"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	last := map[[2]int]float64{}
	var words int64
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		k := [2]int{ev.PID, ev.TID}
		if prev, ok := last[k]; ok && ev.TS < prev {
			t.Fatalf("non-monotone ts on pid=%d tid=%d", ev.PID, ev.TID)
		}
		last[k] = ev.TS
		if ev.Ph == "X" && ev.PID == 1 && !strings.HasPrefix(ev.Name, "wait ") {
			words += int64(ev.Args.Words)
		}
	}
	if words != res.Stats.Words {
		t.Errorf("chrome word sum = %d, Stats.Words = %d", words, res.Stats.Words)
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Errorf("default options invalid: %v", err)
	}
	bad := []struct {
		name string
		mut  func(*Options)
		want string
	}{
		{"negative P", func(o *Options) { o.P = -2 }, "Options.P"},
		{"unknown strategy", func(o *Options) { o.Strategy = 99 }, "Strategy"},
		{"unknown remap level", func(o *Options) { o.RemapOpt = -1 }, "RemapOpt"},
		{"negative clone limit", func(o *Options) { o.CloneLimit = -1 }, "CloneLimit"},
		{"negative jobs", func(o *Options) { o.Jobs = -4 }, "Options.Jobs"},
		{"negative deadline", func(o *Options) { o.Deadline = -time.Second }, "Options.Deadline"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			o := DefaultOptions()
			tc.mut(&o)
			err := o.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate() = %v, want error mentioning %q", err, tc.want)
			}
			// Compile must reject it too, not silently default
			if _, err := Compile(Fig1Src(100, 4), o); err == nil {
				t.Error("Compile accepted invalid options")
			}
		})
	}
}

// TestRunSPMDBadDistribute checks that a DISTRIBUTE whose descriptor
// cannot be built is a loud compile-time error rather than a silently
// dropped distribution.
func TestRunSPMDBadDistribute(t *testing.T) {
	// rank mismatch: 2-D array, 1-D distribution spec
	src := `
      PROGRAM MAIN
      REAL A(8,8)
      DISTRIBUTE A(BLOCK)
      do i = 1,8
        A(i,1) = 1.0
      enddo
      END
`
	_, err := NewRunner().RunSPMD(src, 4)
	if err == nil || !strings.Contains(err.Error(), "DISTRIBUTE A") {
		t.Errorf("RunSPMD = %v, want DISTRIBUTE A error", err)
	}

	// non-constant dimension bound
	src2 := `
      PROGRAM MAIN
      REAL A(n)
      DISTRIBUTE A(BLOCK)
      END
`
	_, err = NewRunner().RunSPMD(src2, 4)
	if err == nil || !strings.Contains(err.Error(), "not compile-time constants") {
		t.Errorf("RunSPMD = %v, want non-constant bounds error", err)
	}
}
