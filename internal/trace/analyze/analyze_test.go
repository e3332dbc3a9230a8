package analyze

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"fortd/internal/trace"
)

// TestZeroWordHistogram: nil-payload messages land in their own [0,0]
// size class instead of being dropped or merged into the 1-word bin.
func TestZeroWordHistogram(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.KindSend, Name: "send", Proc: "M", Line: 1, PID: 0, Src: 0, Dst: 1, Words: 0, Start: 0, Dur: 5, Seq: 1},
		{Kind: trace.KindSend, Name: "send", Proc: "M", Line: 2, PID: 0, Src: 0, Dst: 1, Words: 1, Start: 5, Dur: 5, Seq: 2},
		{Kind: trace.KindSend, Name: "send", Proc: "M", Line: 3, PID: 0, Src: 0, Dst: 1, Words: 3, Start: 10, Dur: 5, Seq: 3},
		{Kind: trace.KindRecv, Name: "recv", Proc: "M", Line: 4, PID: 1, Src: 0, Dst: 1, Words: 0, Start: 0, Dur: 6, Seq: 1},
		{Kind: trace.KindProcSummary, PID: 0, Dur: 15, Sent: 3},
		{Kind: trace.KindProcSummary, PID: 1, Dur: 20, Recvd: 3},
	}
	a := Analyze(events)
	if a == nil {
		t.Fatal("Analyze returned nil")
	}
	if a.Total.Msgs != 3 || a.Total.Words != 4 {
		t.Errorf("msgs=%d words=%d, want 3/4", a.Total.Msgs, a.Total.Words)
	}
	var zero, one, four *trace.Bucket
	for i := range a.Histogram {
		b := &a.Histogram[i]
		switch {
		case b.Lo == 0 && b.Hi == 0:
			zero = b
		case b.Lo == 1 && b.Hi == 1:
			one = b
		case b.Hi == 4:
			four = b
		}
	}
	if zero == nil || zero.Msgs != 1 || zero.Words != 0 {
		t.Errorf("zero-word bucket = %+v", zero)
	}
	if one == nil || one.Msgs != 1 {
		t.Errorf("one-word bucket = %+v", one)
	}
	if four == nil || four.Msgs != 1 || four.Words != 3 {
		t.Errorf("3-word bucket = %+v", four)
	}
	if got := a.Matrix.Msgs[0][1]; got != 3 {
		t.Errorf("Matrix.Msgs[0][1] = %d", got)
	}
	var buf bytes.Buffer
	if err := a.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "0 words") {
		t.Errorf("rendered histogram has no zero-word class:\n%s", buf.String())
	}
}

// TestUnattributedSitesStayDistinct: events with no procedure context
// fall back to the observing processor as the site key, so two
// processors' unattributed costs never collapse into one row (the
// collapsed row used to misreport both per-site totals and the
// critical-path share, which is a per-processor maximum).
func TestUnattributedSitesStayDistinct(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.KindSend, Name: "send", PID: 0, Src: 0, Dst: 1, Words: 4, Start: 0, Dur: 5, Seq: 1},
		{Kind: trace.KindSend, Name: "send", PID: 1, Src: 1, Dst: 0, Words: 8, Start: 0, Dur: 7, Seq: 1},
		{Kind: trace.KindSend, Name: "send", PID: 1, Src: 1, Dst: 0, Words: 8, Start: 7, Dur: 7, Seq: 2},
		{Kind: trace.KindSend, Name: "bcast", PID: 1, Src: 1, Dst: 0, Words: 2, Start: 14, Dur: 3, Seq: 3},
		{Kind: trace.KindSend, Name: "send", Proc: "MAIN", Line: 3, PID: 0, Src: 0, Dst: 1, Words: 1, Start: 5, Dur: 2, Seq: 2},
		{Kind: trace.KindProcSummary, PID: 0, Dur: 20, Sent: 2},
		{Kind: trace.KindProcSummary, PID: 1, Dur: 20, Sent: 3},
	}
	a := Analyze(events)
	if a == nil {
		t.Fatal("Analyze returned nil")
	}
	// expect 4 rows: (unattributed p0) send, (unattributed p1) send,
	// (unattributed p1) bcast, MAIN:3 send
	if len(a.Sites) != 4 {
		t.Fatalf("got %d site rows, want 4: %+v", len(a.Sites), a.Sites)
	}
	bySite := map[string]trace.SiteRow{}
	for _, h := range a.Sites {
		bySite[h.Site()+" "+h.Op] = h
	}
	p0 := bySite["(unattributed p0) send"]
	if p0.Msgs != 1 || p0.Words != 4 || p0.Send != 5 || p0.PID != 0 {
		t.Errorf("(unattributed p0) send = %+v", p0)
	}
	p1 := bySite["(unattributed p1) send"]
	if p1.Msgs != 2 || p1.Words != 16 || p1.Send != 14 || p1.PID != 1 {
		t.Errorf("(unattributed p1) send = %+v", p1)
	}
	if b := bySite["(unattributed p1) bcast"]; b.Msgs != 1 || b.Words != 2 {
		t.Errorf("(unattributed p1) bcast = %+v", b)
	}
	m := bySite["MAIN:3 send"]
	if m.Msgs != 1 || m.PID != -1 {
		t.Errorf("attributed site = %+v, want Msgs=1 PID=-1", m)
	}
}

// TestFaultAndAbortCollection: injected-fault and abort events are
// aggregated into the analysis and rendered only when present.
func TestFaultAndAbortCollection(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.KindSend, Name: "send", PID: 0, Src: 0, Dst: 1, Words: 2, Start: 0, Dur: 5, Seq: 1},
		{Kind: trace.KindFault, Name: "delay", PID: 0, Src: 0, Dst: 1, Start: 0, Dur: 30, Seq: 1},
		{Kind: trace.KindFault, Name: "delay", PID: 0, Src: 0, Dst: 1, Start: 5, Dur: 10, Seq: 2},
		{Kind: trace.KindFault, Name: "straggler", PID: 1, Src: 1, Dst: 1, Dur: 2.5},
		{Kind: trace.KindAbort, Name: "deadlock", Proc: "MAIN", Line: 9, PID: 1, Src: 0, Dst: 1, Start: 40},
		{Kind: trace.KindProcSummary, PID: 0, Dur: 50},
		{Kind: trace.KindProcSummary, PID: 1, Dur: 40},
	}
	a := Analyze(events)
	if a == nil {
		t.Fatal("Analyze returned nil")
	}
	if len(a.Faults) != 2 {
		t.Fatalf("faults = %+v, want delay + straggler", a.Faults)
	}
	// sorted by name: delay before straggler
	if a.Faults[0].Name != "delay" || a.Faults[0].Count != 2 || a.Faults[0].Time != 40 {
		t.Errorf("delay stat = %+v", a.Faults[0])
	}
	if a.Faults[1].Name != "straggler" || a.Faults[1].Count != 1 {
		t.Errorf("straggler stat = %+v", a.Faults[1])
	}
	if len(a.Aborts) != 1 {
		t.Fatalf("aborts = %+v", a.Aborts)
	}
	ab := a.Aborts[0]
	if ab.PID != 1 || ab.Name != "deadlock" || ab.Proc != "MAIN" || ab.Line != 9 || ab.Start != 40 {
		t.Errorf("abort = %+v", ab)
	}
	var buf bytes.Buffer
	if err := a.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "injected faults:") || !strings.Contains(out, "aborted processors:") {
		t.Errorf("rendered analysis lacks fault/abort sections:\n%s", out)
	}

	// a clean run renders neither section
	clean := Analyze(events[:1])
	buf.Reset()
	if err := clean.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "injected faults") || strings.Contains(buf.String(), "aborted") {
		t.Errorf("clean analysis renders fault sections:\n%s", buf.String())
	}
}

// TestZeroDurationAnalysis: a run whose processors report zero busy
// time (P=1 with no communication, or a degenerate trace) must analyze
// to all-zero shares — CPShare 0, bin width skipped — with no NaN or
// Inf leaking into the rendered report from a division by zero time.
func TestZeroDurationAnalysis(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.KindProcSummary, PID: 0, Dur: 0},
		{Kind: trace.KindProcSummary, PID: 1, Dur: 0},
		{Kind: trace.KindSend, Name: "send", Proc: "MAIN", Line: 3, PID: 0, Src: 0, Dst: 1, Words: 1, Start: 0, Dur: 0, Seq: 1},
	}
	a := Analyze(events)
	if a == nil {
		t.Fatal("Analyze returned nil")
	}
	if a.Total.Time != 0 {
		t.Errorf("Time = %v, want 0", a.Total.Time)
	}
	for _, h := range a.Sites {
		if h.CPShare != 0 {
			t.Errorf("site %s CPShare = %v, want 0 on a zero-duration run", h.Site(), h.CPShare)
		}
	}
	var buf bytes.Buffer
	if err := a.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"NaN", "Inf"} {
		if strings.Contains(buf.String(), bad) {
			t.Errorf("zero-duration report contains %s:\n%s", bad, buf.String())
		}
	}
}

// TestMatrixGroups: every processor falls in the group whose label
// spans it, groups are consecutive and non-empty, and up to 64
// processors each is its own group.
func TestMatrixGroups(t *testing.T) {
	for _, p := range []int{1, 5, 64, 65, 100, 128, 1000, 1024} {
		m := newMatrix(p)
		if m.N != min(p, 64) || len(m.Msgs) != m.N {
			t.Fatalf("P=%d: grid side %d, want %d", p, m.N, min(p, 64))
		}
		for pid := 0; pid < p; pid++ {
			g := m.Group(pid)
			if pid < m.First(g) || pid >= m.First(g+1) {
				t.Fatalf("P=%d: p%d in group %d = [%d, %d)", p, pid, g, m.First(g), m.First(g+1))
			}
		}
		for g := 0; g < m.N; g++ {
			if m.First(g+1) <= m.First(g) {
				t.Fatalf("P=%d: group %d is empty", p, g)
			}
		}
		if m.First(0) != 0 || m.First(m.N) != p {
			t.Errorf("P=%d: groups span [%d, %d)", p, m.First(0), m.First(m.N))
		}
		if p <= 64 && m.Label(p-1) != fmt.Sprintf("p%d", p-1) {
			t.Errorf("P=%d: last label %q", p, m.Label(p-1))
		}
	}
	if got := newMatrix(1024).Label(63); got != "p1008-p1023" {
		t.Errorf("P=1024: last label %q, want p1008-p1023", got)
	}
}
