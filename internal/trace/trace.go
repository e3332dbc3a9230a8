// Package trace is the structured event-tracing and metrics subsystem
// threaded through both halves of the system: the compiler driver emits
// per-phase spans and counters (wall-clock time), and the machine
// simulator emits one event per message, broadcast step and remap
// (virtual time), each carrying its source attribution — the procedure
// and statement whose compilation placed the communication. Distill
// summarises a run's events once, into the rows every consumer reads —
// the text summary here, the analysis and report in trace/analyze, the
// artifact in internal/profile. Three exporters render collected
// events: that text summary (WriteText), JSON Lines (WriteJSONL) and
// Chrome trace_event JSON (WriteChrome) loadable in chrome://tracing or
// Perfetto.
//
// A nil *Tracer is the disabled state: every method is nil-safe and
// allocation-free, so instrumented code can call unconditionally and
// default (untraced) runs pay only a pointer test.
package trace

import (
	"sync"
	"time"
)

// Kind classifies an event.
type Kind uint8

const (
	// KindPhase is a compiler phase span (wall-clock µs).
	KindPhase Kind = iota
	// KindCounter is a compiler metric (messages inserted, clones, ...).
	KindCounter
	// KindSend is a message leaving a processor (virtual µs).
	KindSend
	// KindRecv is a message arriving at a processor; Dur is the time the
	// receiver spent blocked waiting for it.
	KindRecv
	// KindRemap is one processor's participation in a collective
	// data-remapping operation.
	KindRemap
	// KindProcSummary carries one processor's end-of-run totals.
	KindProcSummary
	// KindAbort marks a processor unblocked by a cooperative abort,
	// deadlock detection or deadline expiry; Name is "abort" or
	// "deadlock" and the event carries the blocked operation's
	// attribution (Proc/Line), link (Src/Dst) and virtual clock (Start).
	KindAbort
	// KindFault is one injected fault from a machine.FaultPlan: a
	// delivery "delay" (Dur = injected µs), a duplicated message
	// ("dup" at the sender, "dup-drop" at the discarding receiver), or
	// a "straggler" announcement (Dur = flop-cost multiplier).
	KindFault
	// KindWait is the completion of a nonblocking receive (machine
	// IRecvInto/WaitHandle, split-phase broadcast): like KindRecv,
	// Dur is the time the processor actually stalled at the wait — the
	// part of the message flight the post-early/wait-late schedule
	// failed to hide under computation. It is appended after KindFault
	// so existing serialized kinds keep their values.
	KindWait
)

func (k Kind) String() string {
	switch k {
	case KindPhase:
		return "phase"
	case KindCounter:
		return "counter"
	case KindSend:
		return "send"
	case KindRecv:
		return "recv"
	case KindRemap:
		return "remap"
	case KindProcSummary:
		return "proc"
	case KindAbort:
		return "abort"
	case KindFault:
		return "fault"
	case KindWait:
		return "wait"
	}
	return "?"
}

// Event is one trace record. Which fields are meaningful depends on
// Kind; unused fields are zero.
type Event struct {
	Kind Kind
	// Name is the phase/counter name, or the communication operation
	// that generated a message ("send", "bcast", "allgather", "reduce",
	// "remap").
	Name string
	// Proc is the source procedure the event is attributed to; Line is
	// the source line of the owning statement (0 when unknown).
	Proc string
	Line int
	// PID is the simulated processor the event occurred on.
	PID int
	// Src and Dst are the sending and receiving processors of a message.
	Src, Dst int
	// Words is the message (or remap) payload in data words.
	Words int
	// Start is the event's start time in µs — virtual time for simulator
	// events, wall-clock time relative to the tracer's epoch for
	// compiler phases. Dur is the span length.
	Start, Dur float64
	// Seq links a KindSend event to the KindRecv event of the same
	// message (0 when the tracer was attached mid-run).
	Seq int64
	// Value is the counter value (KindCounter).
	Value int64
	// Per-processor totals (KindProcSummary); Dur holds the clock and
	// Wait the cumulative receive-blocked time.
	Sent, Recvd, Flops int64
	Wait               float64
}

// Tracer collects events from concurrently executing instrumentation
// points. The zero value is NOT ready to use; create with New. A nil
// *Tracer is the disabled fast path.
type Tracer struct {
	mu     sync.Mutex
	events []Event
	epoch  time.Time
}

// New returns an enabled tracer.
func New() *Tracer {
	return &Tracer{epoch: time.Now()}
}

// Enabled reports whether events are being collected.
func (t *Tracer) Enabled() bool { return t != nil }

// Emit records one event. Safe for concurrent use and nil receivers.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

var noop = func() {}

// Phase opens a compiler phase span and returns the closure that ends
// it. Usage: defer t.Phase("parse")().
func (t *Tracer) Phase(name string) func() {
	if t == nil {
		return noop
	}
	start := time.Now()
	return func() {
		t.Emit(Event{
			Kind:  KindPhase,
			Name:  name,
			Start: float64(start.Sub(t.epoch)) / float64(time.Microsecond),
			Dur:   float64(time.Since(start)) / float64(time.Microsecond),
		})
	}
}

// Counter records one compiler metric.
func (t *Tracer) Counter(name string, value int64) {
	if t == nil {
		return
	}
	t.Emit(Event{Kind: KindCounter, Name: name, Value: value})
}

// Events returns a snapshot of everything collected so far.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	t.mu.Unlock()
	return out
}

// Reset discards all collected events (the tracer stays enabled).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = t.events[:0]
	t.mu.Unlock()
}
