package main

import (
	"fmt"

	"fortd/internal/machine"
	"fortd/internal/trace"
)

// machine.replay_s: the host time internal/machine alone needs for a
// run's traffic. The traced run's events are regrouped per processor,
// in emission order (one processor's events are emitted in its program
// order), and replayed on a fresh machine: each processor ticks its
// clock to the event's start and then sends, receives or counts the
// remap exactly as recorded. Computation appears only as clock ticks,
// payloads are uninitialized scratch, and remap copies never happen —
// so the interpreter's work (expression evaluation, section
// enumeration, payload construction, remap data movement) is absent
// and the engine's work (event queue, rings, payload pool, coroutine
// handoff) is all that is left.

type replayOp struct {
	kind     trace.Kind
	peer     int // destination of a send, source of a receive
	words    int
	partners int     // remap only
	start    float64 // virtual µs
}

type replayPlan struct {
	p     int
	ops   [][]replayOp // by processor
	final []float64    // end-of-run clock by processor
}

func planReplay(events []trace.Event, p int) replayPlan {
	plan := replayPlan{p: p, ops: make([][]replayOp, p), final: make([]float64, p)}
	for _, ev := range events {
		op := replayOp{kind: ev.Kind, words: ev.Words, start: ev.Start}
		switch ev.Kind {
		case trace.KindSend:
			op.peer = ev.Dst
		case trace.KindRecv, trace.KindWait:
			op.peer = ev.Src
		case trace.KindRemap:
			op.partners = int(ev.Value)
		case trace.KindProcSummary:
			plan.final[ev.PID] = ev.Dur
			continue
		default:
			continue
		}
		plan.ops[ev.PID] = append(plan.ops[ev.PID], op)
	}
	return plan
}

// tickTo advances the processor's clock to exactly t. One Tick almost
// always lands on t; when clock+(t-clock) rounds short, the remainder
// is exact and a second Tick closes it.
func tickTo(p *machine.Proc, t float64) {
	for p.Clock() < t {
		p.Tick(t - p.Clock())
	}
}

// run replays the plan on a fresh machine and returns its statistics.
func (plan replayPlan) run() (machine.Stats, error) {
	m := machine.New(machine.DefaultConfig(plan.p))
	for pid := 0; pid < plan.p; pid++ {
		ops, final := plan.ops[pid], plan.final[pid]
		m.Go(pid, func(p *machine.Proc) {
			for _, op := range ops {
				tickTo(p, op.start)
				switch op.kind {
				case trace.KindSend:
					p.Send(op.peer, p.Scratch(op.words))
				case trace.KindRecv, trace.KindWait:
					p.Recv(op.peer)
				case trace.KindRemap:
					p.CountRemap(op.words, op.partners)
				}
			}
			tickTo(p, final)
		})
	}
	err := m.Wait()
	return m.Stats(), err
}

// sameTraffic reports how the replay's statistics differ from the
// traced run's ("" when messages, words and time are all equal).
func sameTraffic(got, want machine.Stats) string {
	if got.Messages != want.Messages || got.Words != want.Words || got.Time != want.Time {
		return fmt.Sprintf("replay msgs=%d words=%d time=%v, traced run msgs=%d words=%d time=%v",
			got.Messages, got.Words, got.Time, want.Messages, want.Words, want.Time)
	}
	return ""
}
