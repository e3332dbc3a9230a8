package machine

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"fortd/internal/trace"
	"fortd/internal/trace/analyze"
)

// TestAbortUnblocksPeers: when one processor fails, a peer blocked in
// Recv returns through an *AbortError carrying the origin and cause
// instead of hanging.
func TestAbortUnblocksPeers(t *testing.T) {
	m := New(DefaultConfig(2))
	cause := errors.New("node program failed")
	m.Go(0, func(p *Proc) {
		m.Abort(0, cause)
	})
	m.Go(1, func(p *Proc) {
		p.SetContext("WORK", 7, "recv")
		p.Recv(0) // would block forever without the abort
	})
	if err := m.Wait(); !errors.Is(err, cause) {
		t.Fatalf("Wait() = %v, want the abort cause", err)
	}
	var ae *AbortError
	if perr := m.ProcErr(1); !errors.As(perr, &ae) {
		t.Fatalf("ProcErr(1) = %v, want *AbortError", perr)
	}
	if ae.PID != 1 || ae.Origin != 0 || ae.Op != "recv" || ae.Peer != 0 {
		t.Errorf("AbortError = %+v", ae)
	}
	if ae.Proc != "WORK" || ae.Line != 7 {
		t.Errorf("attribution = %s:%d, want WORK:7", ae.Proc, ae.Line)
	}
	if !errors.Is(ae, cause) {
		t.Error("AbortError does not unwrap to the cause")
	}
}

// TestNodeProgramPanicIsAnError: a node program that panics with
// anything but the machine's own abort unwind — an executor bug, an
// index out of range — fails its run with a *PanicError and unblocks
// its peers, on the machine and on the channel oracle, instead of taking
// the process down. CheckAbort lets a peer that neither computes nor
// communicates see it.
func TestNodeProgramPanicIsAnError(t *testing.T) {
	for be, newMachine := range map[string]func(Config) *Machine{"des": New, "chan oracle": newChanMachine} {
		m := newMachine(DefaultConfig(3))
		m.Go(0, func(p *Proc) {
			var empty []int
			_ = empty[p.ID()+1] // index out of range
		})
		m.Go(1, func(p *Proc) { p.Recv(0) })
		m.Go(2, func(p *Proc) {
			for {
				p.CheckAbort()
			}
		})
		err := m.Wait()
		var pe *PanicError
		if !errors.As(err, &pe) || pe.PID != 0 {
			t.Fatalf("%v: Wait() = %v, want p0's *PanicError", be, err)
		}
		if !strings.Contains(pe.Error(), "index out of range") || !strings.Contains(pe.Stack, "abort_test.go") {
			t.Errorf("%v: PanicError = %q, stack names abort_test.go: %v", be, pe, strings.Contains(pe.Stack, "abort_test.go"))
		}
		if perr := m.ProcErr(0); perr != error(pe) {
			t.Errorf("%v: ProcErr(0) = %v, want the PanicError", be, perr)
		}
		for _, pid := range []int{1, 2} {
			var ae *AbortError
			if perr := m.ProcErr(pid); !errors.As(perr, &ae) || ae.Origin != 0 || !errors.Is(ae, pe) {
				t.Errorf("%v: ProcErr(%d) = %v, want an AbortError caused by p0's panic", be, pid, perr)
			}
		}
	}
}

// TestDeadlockWatchdog: two processors each waiting for the other to
// send first is detected (the name is from when a watchdog did it), and
// the report names both blocked receives.
func TestDeadlockWatchdog(t *testing.T) {
	m := New(DefaultConfig(2))
	m.Go(0, func(p *Proc) {
		p.SetContext("MAIN", 10, "recv")
		p.Recv(1)
	})
	m.Go(1, func(p *Proc) {
		p.SetContext("MAIN", 20, "recv")
		p.Recv(0)
	})
	err := m.Wait()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Wait() = %v, want *DeadlockError", err)
	}
	if dl.Deadline {
		t.Error("deadlock detection reported as deadline expiry")
	}
	if dl.Live != 2 || len(dl.Blocked) != 2 {
		t.Fatalf("report = %+v, want 2 live / 2 blocked", dl)
	}
	for i, want := range []BlockedProc{
		{PID: 0, Proc: "MAIN", Line: 10, Op: "recv", Peer: 1},
		{PID: 1, Proc: "MAIN", Line: 20, Op: "recv", Peer: 0},
	} {
		got := dl.Blocked[i]
		got.Clock = 0
		if got != want {
			t.Errorf("Blocked[%d] = %+v, want %+v", i, dl.Blocked[i], want)
		}
	}
	// both node programs were unwound with the deadlock as cause
	for pid := 0; pid < 2; pid++ {
		var ae *AbortError
		if perr := m.ProcErr(pid); !errors.As(perr, &ae) || !errors.As(ae.Cause, &dl) {
			t.Errorf("ProcErr(%d) = %v, want AbortError wrapping the deadlock", pid, perr)
		}
	}
}

// TestLopsidedDeadlock: deadlock is not reported while any processor is
// runnable. p1 parks at once on a link that will never fire; p0 has a
// long way to go before it parks too, part of it blocked on a message
// in flight to itself from p2. The report comes only when p0 has run
// all of it, and lists the two that are stuck, not the one that left.
func TestLopsidedDeadlock(t *testing.T) {
	m := New(DefaultConfig(3))
	const flops = 1000
	m.Go(1, func(p *Proc) { p.Recv(0) })
	m.Go(2, func(p *Proc) {
		p.Compute(flops)
		p.Send(0, []float64{1})
	})
	ran := false
	m.Go(0, func(p *Proc) {
		p.Recv(2) // parked while p1 is parked too, but p2 is runnable
		p.Compute(flops)
		ran = true
		p.Recv(1)
	})
	err := m.Wait()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Wait() = %v, want *DeadlockError", err)
	}
	if !ran {
		t.Error("deadlock reported before p0 had run to its last receive")
	}
	if dl.Live != 2 || len(dl.Blocked) != 2 || dl.Blocked[0].PID != 0 || dl.Blocked[1].PID != 1 {
		t.Fatalf("report = %+v, want p0 and p1 blocked of 2 live", dl)
	}
	cfg := m.cfg
	if want := 2*flops*cfg.FlopCost + 2*cfg.Latency + cfg.PerWord; dl.Blocked[0].Clock < want-1e-9 {
		t.Errorf("p0 blocked at clock %v, want at least %v (both computes and the flight)", dl.Blocked[0].Clock, want)
	}
}

// TestNoFalsePositiveUnderLoad: a heavily communicating run where
// receivers constantly block must never be taken for a deadlock.
func TestNoFalsePositiveUnderLoad(t *testing.T) {
	m := New(DefaultConfig(2))
	const N = 2000
	m.Go(0, func(p *Proc) {
		for i := 0; i < N; i++ {
			p.Send(1, []float64{float64(i)})
			p.Recv(1)
		}
	})
	m.Go(1, func(p *Proc) {
		for i := 0; i < N; i++ {
			p.Send(0, nil)
			p.Recv(0)
		}
	})
	if err := m.Wait(); err != nil {
		t.Fatalf("ping-pong run aborted: %v", err)
	}
}

// TestCongestionFailFast: a sender with no receiver fails loudly when
// the link fills, naming the congested pair, instead of blocking.
func TestCongestionFailFast(t *testing.T) {
	m := New(Config{P: 2, Latency: 1, PerWord: 1, FlopCost: 1, LinkDepth: 8})
	m.Go(0, func(p *Proc) {
		p.SetContext("FLOOD", 3, "send")
		for i := 0; ; i++ {
			p.Send(1, []float64{1})
		}
	})
	m.Go(1, func(p *Proc) {}) // never receives
	err := m.Wait()
	var ce *CongestionError
	if !errors.As(err, &ce) {
		t.Fatalf("Wait() = %v, want *CongestionError", err)
	}
	if ce.Src != 0 || ce.Dst != 1 || ce.Depth != 8 {
		t.Errorf("congestion = %+v, want p0->p1 depth 8", ce)
	}
	if ce.Proc != "FLOOD" || ce.Line != 3 {
		t.Errorf("attribution = %s:%d, want FLOOD:3", ce.Proc, ce.Line)
	}
}

// TestDeadlineAbortsComputeLoop: the wall-clock deadline cancels even
// a compute-bound node program (no channel waits to unblock).
func TestDeadlineAbortsComputeLoop(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Deadline = 30 * time.Millisecond
	m := New(cfg)
	m.Go(0, func(p *Proc) {
		for {
			p.Compute(1)
		}
	})
	err := m.Wait()
	var dl *DeadlockError
	if !errors.As(err, &dl) || !dl.Deadline {
		t.Fatalf("Wait() = %v, want deadline *DeadlockError", err)
	}
	var ae *AbortError
	if perr := m.ProcErr(0); !errors.As(perr, &ae) || ae.Op != "compute" {
		t.Errorf("ProcErr(0) = %v, want compute AbortError", perr)
	}
}

// faultedRun executes a fixed exchange pattern under a fault plan and
// returns its stats and sorted JSONL trace export (determinism is
// defined over the sorted exports).
func faultedRun(t *testing.T, fp *FaultPlan) (Stats, string) {
	t.Helper()
	if err := fp.Validate(); err != nil {
		t.Fatal(err)
	}
	m := New(Config{P: 3, Latency: 10, PerWord: 1, FlopCost: 1})
	tr := trace.New()
	m.SetTracer(tr)
	m.SetFaultPlan(fp)
	for pid := 0; pid < 3; pid++ {
		pid := pid
		m.Go(pid, func(p *Proc) {
			for i := 0; i < 40; i++ {
				p.Compute(3)
				p.Send((pid+1)%3, []float64{float64(pid), float64(i)})
				p.Recv((pid + 2) % 3)
			}
		})
	}
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return m.Stats(), buf.String()
}

// TestFaultDeterminism: the same seed injects exactly the same faults —
// identical stats and identical event streams across runs.
func TestFaultDeterminism(t *testing.T) {
	plan := func() *FaultPlan {
		return &FaultPlan{
			Seed: 42, DelayProb: 0.3, DelayMax: 50,
			DupProb: 0.2, Stragglers: map[int]float64{1: 2.5},
		}
	}
	s1, ev1 := faultedRun(t, plan())
	s2, ev2 := faultedRun(t, plan())
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("stats differ across identically seeded runs:\n%+v\n%+v", s1, s2)
	}
	if ev1 != ev2 {
		t.Error("sorted trace exports differ across identically seeded runs")
	}
	if !strings.Contains(ev1, `"fault"`) {
		t.Error("plan with 30% delay / 20% dup over 120 messages injected nothing")
	}
	// a different seed draws a different schedule
	s3, _ := faultedRun(t, &FaultPlan{
		Seed: 43, DelayProb: 0.3, DelayMax: 50,
		DupProb: 0.2, Stragglers: map[int]float64{1: 2.5},
	})
	if s1.Time == s3.Time {
		t.Logf("seeds 42 and 43 produced identical time %v (possible but suspicious)", s1.Time)
	}
}

// TestStragglerSkew: a straggler's flop cost is scaled by its
// multiplier; other processors are unaffected.
func TestStragglerSkew(t *testing.T) {
	run := func(fp *FaultPlan) Stats {
		m := New(Config{P: 2, Latency: 1, PerWord: 1, FlopCost: 2})
		if fp != nil {
			m.SetFaultPlan(fp)
		}
		for pid := 0; pid < 2; pid++ {
			m.Go(pid, func(p *Proc) { p.Compute(100) })
		}
		if err := m.Wait(); err != nil {
			t.Fatal(err)
		}
		return m.Stats()
	}
	base := run(nil)
	skewed := run(&FaultPlan{Seed: 1, Stragglers: map[int]float64{1: 3}})
	if got, want := skewed.PerProc[0].Clock, base.PerProc[0].Clock; got != want {
		t.Errorf("non-straggler clock = %v, want %v", got, want)
	}
	if got, want := skewed.PerProc[1].Clock, 3*base.PerProc[1].Clock; got != want {
		t.Errorf("straggler clock = %v, want %v (3x)", got, want)
	}
}

// TestDuplicateSemantics: duplicated deliveries are discarded by the
// receiver — data is correct, message/word counts are unchanged, and
// conservation (sent == received) still holds.
func TestDuplicateSemantics(t *testing.T) {
	m := New(Config{P: 2, Latency: 1, PerWord: 1, FlopCost: 1})
	m.SetFaultPlan(&FaultPlan{Seed: 7, DupProb: 1}) // duplicate everything
	const N = 20
	m.Go(0, func(p *Proc) {
		for i := 0; i < N; i++ {
			p.Send(1, []float64{float64(i)})
		}
	})
	var got []float64
	m.Go(1, func(p *Proc) {
		for i := 0; i < N; i++ {
			got = append(got, p.Recv(0)[0])
		}
	})
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < N; i++ {
		if got[i] != float64(i) {
			t.Fatalf("data corrupted by duplicates: got[%d] = %v", i, got[i])
		}
	}
	s := m.Stats()
	if s.Messages != N || s.Received != N || s.Words != N {
		t.Errorf("duplicates leaked into counts: %+v", s)
	}
	if s.Messages != s.Received {
		t.Errorf("conservation broken: sent %d, received %d", s.Messages, s.Received)
	}
}

// TestDupBound: MaxDups caps per-sender duplication.
func TestDupBound(t *testing.T) {
	m := New(Config{P: 2, Latency: 1, PerWord: 1, FlopCost: 1})
	tr := trace.New()
	m.SetTracer(tr)
	m.SetFaultPlan(&FaultPlan{Seed: 7, DupProb: 1, MaxDups: 3})
	const N = 10
	m.Go(0, func(p *Proc) {
		for i := 0; i < N; i++ {
			p.Send(1, []float64{1})
		}
	})
	m.Go(1, func(p *Proc) {
		for i := 0; i < N; i++ {
			p.Recv(0)
		}
	})
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	dups := 0
	for _, ev := range tr.Events() {
		if ev.Kind == trace.KindFault && ev.Name == "dup" {
			dups++
		}
	}
	if dups != 3 {
		t.Errorf("injected %d dups, want MaxDups = 3", dups)
	}
}

// TestFaultPlanValidate rejects out-of-range probabilities and skews.
func TestFaultPlanValidate(t *testing.T) {
	bad := []*FaultPlan{
		{DelayProb: -0.1},
		{DelayProb: 1.5, DelayMax: 1},
		{DelayProb: 0.5}, // DelayMax 0 injects nothing
		{DelayMax: -1},
		{DupProb: 2},
		{MaxDups: -1},
		{Stragglers: map[int]float64{0: 0}},
		{Stragglers: map[int]float64{0: -2}},
	}
	for i, fp := range bad {
		if err := fp.Validate(); err == nil {
			t.Errorf("plan %d (%+v) validated", i, fp)
		}
	}
	var nilPlan *FaultPlan
	if err := nilPlan.Validate(); err != nil {
		t.Errorf("nil plan: %v", err)
	}
	ok := &FaultPlan{Seed: 1, DelayProb: 0.5, DelayMax: 10, DupProb: 0.1,
		Stragglers: map[int]float64{2: 1.5}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

// TestBroadcastSmallP: the broadcast tree delivers at P=1, 3 and 6 from
// every root (the ISSUE's collective matrix), including zero-word
// payloads.
func TestBroadcastSmallP(t *testing.T) {
	for _, P := range []int{1, 3, 6} {
		for root := 0; root < P; root++ {
			m := New(Config{P: P, Latency: 5, PerWord: 1, FlopCost: 1})
			got := make([][]float64, P)
			for p := 0; p < P; p++ {
				p := p
				m.Go(p, func(pr *Proc) {
					var data []float64
					if p == root {
						data = []float64{float64(root + 1)}
					}
					got[p] = pr.Broadcast(root, All, data)
				})
			}
			if err := m.Wait(); err != nil {
				t.Fatalf("P=%d root=%d: %v", P, root, err)
			}
			for p := 0; p < P; p++ {
				if len(got[p]) != 1 || got[p][0] != float64(root+1) {
					t.Errorf("P=%d root=%d proc=%d got %v", P, root, p, got[p])
				}
			}
			if s := m.Stats(); s.Messages != int64(P-1) {
				t.Errorf("P=%d root=%d messages = %d, want %d", P, root, s.Messages, P-1)
			}
		}
	}
}

// TestZeroWordMessages: nil-payload messages flow through Send/Recv,
// Stats and the traced run's traffic matrix as zero-word messages (the
// barrier pattern), not as errors or phantom words.
func TestZeroWordMessages(t *testing.T) {
	m := New(Config{P: 2, Latency: 10, PerWord: 1, FlopCost: 1})
	tr := trace.New()
	m.SetTracer(tr)
	m.Go(0, func(p *Proc) {
		p.Send(1, nil)
		p.Send(1, []float64{})
	})
	m.Go(1, func(p *Proc) {
		if d := p.Recv(0); len(d) != 0 {
			t.Errorf("nil-payload recv = %v", d)
		}
		p.Recv(0)
	})
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.Messages != 2 || s.Received != 2 || s.Words != 0 {
		t.Errorf("stats = %+v, want 2 msgs / 0 words", s)
	}
	a := analyze.Analyze(tr.Events())
	if mx := a.Matrix; mx.Msgs[0][1] != 2 || mx.Words[0][1] != 0 {
		t.Errorf("Matrix[0][1] = %d msgs / %d words, want 2 / 0", mx.Msgs[0][1], mx.Words[0][1])
	}
	checkMatrixRows(t, a.Matrix, s)
	if w := a.Total.Words; w != 0 {
		t.Errorf("traced words = %d", w)
	}
}

// TestAbortTraceEvent: an aborted run leaves a KindAbort event carrying
// the blocked link and attribution.
func TestAbortTraceEvent(t *testing.T) {
	m := New(DefaultConfig(2))
	tr := trace.New()
	m.SetTracer(tr)
	m.Go(0, func(p *Proc) {
		m.Abort(0, fmt.Errorf("boom"))
	})
	m.Go(1, func(p *Proc) {
		p.SetContext("MAIN", 5, "recv")
		p.Recv(0)
	})
	m.Wait()
	var found bool
	for _, ev := range tr.Events() {
		if ev.Kind == trace.KindAbort {
			found = true
			if ev.PID != 1 || ev.Name != "abort" || ev.Src != 0 || ev.Dst != 1 ||
				ev.Proc != "MAIN" || ev.Line != 5 {
				t.Errorf("abort event = %+v", ev)
			}
		}
	}
	if !found {
		t.Error("no KindAbort event emitted")
	}
}
