package fortd

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

// dgefaFaultPlan is the seeded plan the acceptance criterion runs
// twice: delivery delays, a straggler, and duplicated messages.
func dgefaFaultPlan() *FaultPlan {
	return &FaultPlan{
		Seed:       1234,
		DelayProb:  0.25,
		DelayMax:   120,
		DupProb:    0.1,
		Stragglers: map[int]float64{2: 2.0},
	}
}

// faultedDgefaExports compiles and runs dgefa under the fault plan and
// returns the sorted text and JSONL trace exports.
func faultedDgefaExports(t *testing.T) (string, string) {
	t.Helper()
	prog, err := Compile(DgefaSrc(32, 4), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrace()
	r := NewRunner(
		WithInit(map[string][]float64{"a": DgefaMatrix(32)}),
		WithTrace(tr), WithFaults(dgefaFaultPlan()),
	)
	if _, err := r.Run(prog); err != nil {
		t.Fatal(err)
	}
	var text, jsonl bytes.Buffer
	if err := tr.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	return text.String(), jsonl.String()
}

// TestFaultInjectionDeterministicExport is the ISSUE's acceptance
// criterion: two fault-injected dgefa runs with the same seed produce
// byte-identical trace exports, and the injected faults are attributed
// in the summary.
func TestFaultInjectionDeterministicExport(t *testing.T) {
	text1, jsonl1 := faultedDgefaExports(t)
	text2, jsonl2 := faultedDgefaExports(t)
	if text1 != text2 {
		t.Error("seeded fault runs produced different WriteText output")
	}
	if jsonl1 != jsonl2 {
		t.Error("seeded fault runs produced different WriteJSONL output")
	}
	if !strings.Contains(jsonl1, `"kind":"fault"`) {
		t.Error("JSONL export has no fault events")
	}
	if !strings.Contains(text1, "injected faults") {
		t.Errorf("text summary does not attribute injected faults:\n%s", text1)
	}
	if !strings.Contains(text1, "straggler") {
		t.Error("text summary does not announce the straggler")
	}
}

// TestFaultedRunStillCorrect: injected faults perturb virtual time
// only; the faulted run's arrays still match the sequential reference.
func TestFaultedRunStillCorrect(t *testing.T) {
	prog, err := Compile(DgefaSrc(16, 4), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	init := map[string][]float64{"a": DgefaMatrix(16)}
	faulted, err := NewRunner(WithInit(init), WithFaults(dgefaFaultPlan())).Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewRunner(WithInit(init)).RunReference(prog)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range ref.Arrays {
		got := faulted.Arrays[name]
		for i := range want {
			if d := math.Abs(got[i] - want[i]); !(d <= 1e-9) {
				t.Fatalf("%s[%d] = %v, want %v (faults changed results)", name, i, got[i], want[i])
			}
		}
	}
	clean, err := NewRunner(WithInit(init)).Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if faulted.Stats.Time <= clean.Stats.Time {
		t.Errorf("faulted time %.1f <= clean time %.1f (faults should cost time)",
			faulted.Stats.Time, clean.Stats.Time)
	}
}

// TestRunnerDeadlineAndDeadlockReport: a one-proc-errors run and a
// mismatched hand-SPMD run both terminate with structured diagnostics
// through the public API.
func TestRunnerDeadlineAndDeadlockReport(t *testing.T) {
	src := `
      PROGRAM MISMATCH
      PARAMETER (n$proc = 2)
      REAL a(8)
      my$p = myproc()
      if (my$p .EQ. 0) then
        recv a(1:4) from 1
      endif
      if (my$p .EQ. 1) then
        recv a(5:8) from 0
      endif
      END
`
	done := make(chan error, 1)
	go func() {
		_, err := NewRunner(WithDeadline(5*time.Second)).RunSPMD(src, 0)
		done <- err
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("mismatched SPMD run hung")
	}
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("RunSPMD = %v, want *DeadlockError", err)
	}
	if len(dl.Blocked) != 2 {
		t.Errorf("report = %+v, want 2 blocked processors", dl)
	}
	// nproc 0 read the n$proc PARAMETER (a 2-proc report proves it)
	for _, b := range dl.Blocked {
		if b.Proc != "MISMATCH" {
			t.Errorf("blocked proc attribution = %q", b.Proc)
		}
	}
}
