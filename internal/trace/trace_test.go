package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestNilTracerIsSafeAndAllocationFree(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if got := tr.Events(); got != nil {
		t.Fatalf("nil tracer events = %v", got)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Emit(Event{Kind: KindSend, Words: 10})
		tr.Phase("p")()
		tr.Counter("c", 1)
		tr.Reset()
	})
	if allocs != 0 {
		t.Errorf("disabled tracing allocates %.1f per op, want 0", allocs)
	}
}

func TestPhaseAndCounter(t *testing.T) {
	tr := New()
	end := tr.Phase("parse")
	end()
	tr.Counter("messages", 7)
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].Kind != KindPhase || evs[0].Name != "parse" || evs[0].Dur < 0 {
		t.Errorf("phase event = %+v", evs[0])
	}
	if evs[1].Kind != KindCounter || evs[1].Value != 7 {
		t.Errorf("counter event = %+v", evs[1])
	}
	tr.Reset()
	if len(tr.Events()) != 0 {
		t.Error("reset did not clear events")
	}
}

func TestMessageWords(t *testing.T) {
	evs := []Event{
		{Kind: KindSend, Words: 10},
		{Kind: KindRecv, Words: 10}, // recv must not double-count
		{Kind: KindSend, Words: 5},
		{Kind: KindRemap, Words: 30},
		{Kind: KindCounter, Value: 99},
	}
	if got := Distill(evs).Total.Words; got != 45 {
		t.Errorf("total words = %d, want 45", got)
	}
}

// sample is a small synthetic trace exercising every event kind.
func sample() []Event {
	return []Event{
		{Kind: KindPhase, Name: "parse", Start: 0, Dur: 12.5},
		{Kind: KindCounter, Name: "messages-inserted", Value: 3},
		{Kind: KindSend, Name: "send", Proc: "JAC", Line: 9, PID: 0, Src: 0, Dst: 1, Words: 16, Start: 10, Dur: 76.4, Seq: 1},
		{Kind: KindRecv, Name: "send", Proc: "JAC", Line: 9, PID: 1, Src: 0, Dst: 1, Words: 16, Start: 40, Dur: 46.4, Seq: 1},
		{Kind: KindSend, Name: "bcast", Proc: "MAIN", Line: 4, PID: 1, Src: 1, Dst: 0, Words: 1, Start: 90, Dur: 70.4, Seq: 2},
		{Kind: KindRemap, Name: "remap", Proc: "ADI", Line: 12, PID: 2, Words: 64, Start: 100, Dur: 95.6, Value: 3},
		{Kind: KindProcSummary, PID: 0, Dur: 500, Wait: 100, Sent: 2, Recvd: 1, Words: 17, Flops: 400},
		{Kind: KindProcSummary, PID: 1, Dur: 480, Wait: 50, Sent: 1, Recvd: 2, Words: 16, Flops: 380},
	}
}

func TestWriteChromeValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			TS   float64                `json:"ts"`
			Dur  float64                `json:"dur"`
			PID  int                    `json:"pid"`
			TID  int                    `json:"tid"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit == "" {
		t.Error("missing displayTimeUnit")
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	var sends int
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.PID == ChromePIDMachine && !strings.HasPrefix(ev.Name, "wait ") && ev.Args["words"] != nil {
			sends++
		}
	}
	if sends != 3 {
		t.Errorf("message slices = %d, want 3 (2 sends + 1 remap)", sends)
	}
}

func TestWriteChromeMonotoneTimestamps(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			TS  float64 `json:"ts"`
			PID int     `json:"pid"`
			TID int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	last := map[[2]int]float64{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		k := [2]int{ev.PID, ev.TID}
		if prev, ok := last[k]; ok && ev.TS < prev {
			t.Fatalf("timestamps not monotone on pid=%d tid=%d: %f after %f", ev.PID, ev.TID, ev.TS, prev)
		}
		last[k] = ev.TS
	}
}

func TestWriteTextSummary(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteText(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"compile phases:",
		"parse",
		"messages-inserted",
		// 2 sends + remap weighted by its 3 partners = 5 messages,
		// 16+1+64 = 81 words
		"run: 5 messages, 81 words (1 remap events)",
		"JAC:9 send",
		"ADI:12 remap",
		"attribution: 100.0% of 5 messages",
		"per-processor",
		"p0",
		"p1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestWriteTextEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteText(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "run: 0 messages, 0 words") {
		t.Errorf("empty summary = %q", buf.String())
	}
}

func TestComputeProfile(t *testing.T) {
	prof := Distill(sample())
	if len(prof.Procs) != 2 {
		t.Fatalf("got %d proc profiles, want 2", len(prof.Procs))
	}
	p0, p1 := prof.Procs[0], prof.Procs[1]
	// p0: clock 500, wait 100, one send of 76.4µs
	if p0.PID != 0 || p0.Blocked != 100 || p0.Send != 76.4 {
		t.Errorf("p0 profile = %+v", p0)
	}
	if want := 500.0 - 100 - 76.4; p0.Compute != want {
		t.Errorf("p0 compute = %g, want %g", p0.Compute, want)
	}
	// p1: clock 480, wait 50, one bcast send of 70.4µs
	if p1.PID != 1 || p1.Blocked != 50 || p1.Send != 70.4 {
		t.Errorf("p1 profile = %+v", p1)
	}
	// busy: p0=400, p1=430 → imbalance 430/415
	if want := 430.0 / 415.0; !close(Imbalance(prof.Procs), want) {
		t.Errorf("imbalance = %g, want %g", Imbalance(prof.Procs), want)
	}
	// p0 never blocks, so its chain spans its whole clock
	if !close(prof.Total.CriticalPath, 500) {
		t.Errorf("critical path = %g, want 500", prof.Total.CriticalPath)
	}
}

func TestComputeProfileNoSummaries(t *testing.T) {
	r := Distill([]Event{{Kind: KindSend, Words: 4}})
	if len(r.Procs) != 0 || r.Total.CriticalPath != 0 {
		t.Errorf("distillation without summaries = %+v, want no processor rows and no critical path", r)
	}
	if r.P != 1 || r.Total.Msgs != 1 || r.Total.Words != 4 {
		t.Errorf("distillation without summaries = %+v, want the send counted on P=1", r)
	}
}

func TestCriticalPathFollowsSendRecvEdge(t *testing.T) {
	// p0 computes 100µs then sends (10µs); p1 blocks from t=0 until the
	// message lands at t=130, then computes 20µs more. The chain runs
	// through the send→recv edge: 110µs of sender work, 20µs in flight,
	// 20µs receiver tail — p1's 130µs of blocking is not chain work.
	evs := []Event{
		{Kind: KindSend, PID: 0, Start: 100, Dur: 10, Seq: 1, Words: 8},
		{Kind: KindRecv, PID: 1, Start: 0, Dur: 130, Seq: 1, Words: 8},
		{Kind: KindProcSummary, PID: 0, Dur: 110, Wait: 0},
		{Kind: KindProcSummary, PID: 1, Dur: 150, Wait: 130},
	}
	prof := Distill(evs)
	// sender chain: 100 compute + 10 send = 110; edge adds the 20µs
	// in-flight time (recv end 130 − send end 110); receiver tail 20.
	if want := 150.0; !close(prof.Total.CriticalPath, want) {
		t.Errorf("critical path = %g, want %g", prof.Total.CriticalPath, want)
	}
	if !close(prof.Procs[1].Compute, 20) {
		t.Errorf("p1 compute = %g, want 20", prof.Procs[1].Compute)
	}
}

func close(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}
