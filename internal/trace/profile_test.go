package trace

import (
	"math"
	"testing"
)

// TestCriticalPathHandBuilt exercises criticalPath on a hand-built
// event set whose longest send→recv chain is known by construction.
//
// Two processors, latency 10, one word per message (1µs transfer):
//
//	p0: computes 100µs, sends (start=100, dur=10, seq=1), computes to 150
//	p1: computes 20µs, recv blocks (start=20, dur=91: arrival at
//	    100+10+1=111), then computes to 130
//
// The chain through the blocking message is
//
//	p0 compute 100 + send 10 + in-flight (111-110=1) + p1 tail (130-111=19)
//	= 130
//
// which beats p0's own chain 100+10+40 = 150? No — p0's chain is
// 150 (it never blocks), so the critical path is max(150, 130) = 150.
// To make the cross-processor chain decisive, p1's tail is extended to
// 80µs of compute (clock 191): its chain is 100+10+1+80 = 191 while
// p0's is 150.
func TestCriticalPathHandBuilt(t *testing.T) {
	events := []Event{
		{Kind: KindSend, Name: "send", PID: 0, Src: 0, Dst: 1, Words: 1,
			Start: 100, Dur: 10, Seq: 1},
		{Kind: KindRecv, Name: "send", PID: 1, Src: 0, Dst: 1, Words: 1,
			Start: 20, Dur: 91, Seq: 1},
		{Kind: KindProcSummary, PID: 0, Dur: 150},
		{Kind: KindProcSummary, PID: 1, Dur: 191, Wait: 91},
	}
	prof := Distill(events).Total
	// p1's chain: 100 (p0 compute) + 10 (send) + 1 (in-flight) + 80 (tail)
	want := 191.0
	if math.Abs(prof.CriticalPath-want) > 1e-9 {
		t.Errorf("critical path = %v, want %v", prof.CriticalPath, want)
	}
}

// TestCriticalPathNonBlockingRecv: a receive that found its message
// already delivered (Dur == 0) adds no cross-processor edge, so the
// critical path is just the longest local chain.
func TestCriticalPathNonBlockingRecv(t *testing.T) {
	events := []Event{
		{Kind: KindSend, Name: "send", PID: 0, Src: 0, Dst: 1, Words: 1,
			Start: 5, Dur: 10, Seq: 1},
		// receiver was already past the arrival time: no blocking
		{Kind: KindRecv, Name: "send", PID: 1, Src: 0, Dst: 1, Words: 1,
			Start: 400, Dur: 0, Seq: 1},
		{Kind: KindProcSummary, PID: 0, Dur: 15},
		{Kind: KindProcSummary, PID: 1, Dur: 420},
	}
	prof := Distill(events).Total
	// p1: 400 compute before the recv + 20 after = 420, no sender edge
	if math.Abs(prof.CriticalPath-420) > 1e-9 {
		t.Errorf("critical path = %v, want 420", prof.CriticalPath)
	}
}

// TestCriticalPathChain: a three-processor relay where each hop blocks;
// the path must thread through both messages.
func TestCriticalPathChain(t *testing.T) {
	// latency 10, 0 per-word cost. p0 computes 50, sends to p1 (arrival
	// 70); p1 blocked from 0, computes 30 after (clock 100), sends to p2
	// (arrival 120); p2 blocked from 0, computes 5 after (clock 125).
	events := []Event{
		{Kind: KindSend, Name: "send", PID: 0, Src: 0, Dst: 1, Words: 0,
			Start: 50, Dur: 10, Seq: 1},
		{Kind: KindRecv, Name: "send", PID: 1, Src: 0, Dst: 1, Words: 0,
			Start: 0, Dur: 70, Seq: 1},
		{Kind: KindSend, Name: "send", PID: 1, Src: 1, Dst: 2, Words: 0,
			Start: 100, Dur: 10, Seq: 2},
		{Kind: KindRecv, Name: "send", PID: 2, Src: 1, Dst: 2, Words: 0,
			Start: 0, Dur: 120, Seq: 2},
		{Kind: KindProcSummary, PID: 0, Dur: 60},
		{Kind: KindProcSummary, PID: 1, Dur: 110, Wait: 70},
		{Kind: KindProcSummary, PID: 2, Dur: 125, Wait: 120},
	}
	prof := Distill(events).Total
	// 50 (p0) + 10 (send) + 10 (flight) + 30 (p1) + 10 (send) + 10
	// (flight) + 5 (p2 tail) = 125: the whole run is one chain
	if math.Abs(prof.CriticalPath-125) > 1e-9 {
		t.Errorf("critical path = %v, want 125", prof.CriticalPath)
	}
}
