// Cooperative abort and deadlock detection for the simulated machine.
//
// The machine's failure model mirrors the real iPSC/860's worst
// behavior — node programs that disagree on their communication
// schedule block in Recv forever — but refuses to reproduce it: the
// first failure (a node-program error, a congested link, a detected
// deadlock, or a wall-clock deadline) latches the abort flag and every
// processor unwinds at its next communication primitive or compute
// step with a structured *AbortError instead of hanging Machine.Wait.
// Deadlock is detected structurally, when the scheduler has live
// processors and nothing left to run (des.go); the resulting
// *DeadlockError carries each blocked processor's (proc, line, op,
// peer, virtual clock) from the SetContext attribution state.
package machine

import (
	"fmt"
	"strings"
	"time"

	"fortd/internal/trace"
)

// abortPanic unwinds a node program out of a blocking primitive after
// an abort; Machine.Go's wrapper recovers it and records the error.
// Any other panic value becomes the processor's *PanicError.
type abortPanic struct{ err error }

// AbortError reports that a processor was cooperatively unblocked (or
// stopped mid-computation) because the run was aborted. It is the
// error a peer observes when some other processor fails; the
// originating failure is available through Unwrap.
type AbortError struct {
	// PID is the processor that was unblocked.
	PID int
	// Origin is the processor whose failure triggered the abort, or -1
	// when deadlock detection or the deadline aborted the run
	// machine-wide.
	Origin int
	// Op is the operation the processor was in ("recv", "send", "bcast",
	// "compute", ...), taken from the SetContext attribution when set.
	Op string
	// Peer is the link partner the processor was blocked on (-1 when it
	// was not blocked on a link, e.g. aborted mid-computation).
	Peer int
	// Clock is the processor's virtual time at the abort.
	Clock float64
	// Proc and Line attribute the blocked statement to its source
	// procedure (empty/0 when the node program never called SetContext).
	Proc string
	Line int
	// Cause is the originating failure.
	Cause error
}

func (e *AbortError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "p%d: aborted", e.PID)
	if e.Origin >= 0 {
		fmt.Fprintf(&b, " by p%d", e.Origin)
	}
	if e.Op != "" {
		fmt.Fprintf(&b, " in %s", e.Op)
	}
	if e.Peer >= 0 {
		fmt.Fprintf(&b, " (peer p%d)", e.Peer)
	}
	if e.Proc != "" {
		if e.Line != 0 {
			fmt.Fprintf(&b, " at %s:%d", e.Proc, e.Line)
		} else {
			fmt.Fprintf(&b, " at %s", e.Proc)
		}
	}
	fmt.Fprintf(&b, ", clock %.1fµs", e.Clock)
	return b.String()
}

// Unwrap exposes the originating failure.
func (e *AbortError) Unwrap() error { return e.Cause }

// CongestionError reports a full link: the sender had cap(link)
// undelivered messages outstanding to one destination, which means the
// communication schedule is pathologically unbalanced (generated code
// never comes close). The machine fails the run with a diagnostic
// naming the congested pair instead of silently blocking the sender.
type CongestionError struct {
	// Src and Dst name the congested link.
	Src, Dst int
	// Depth is the link's buffered capacity, all of it occupied.
	Depth int
	// Proc and Line attribute the overflowing send statement.
	Proc string
	Line int
	// Clock is the sender's virtual time at the failure.
	Clock float64
}

func (e *CongestionError) Error() string {
	site := ""
	if e.Proc != "" {
		site = fmt.Sprintf(" at %s:%d", e.Proc, e.Line)
	}
	return fmt.Sprintf("p%d: link p%d->p%d congested: %d undelivered messages%s, clock %.1fµs",
		e.Src, e.Src, e.Dst, e.Depth, site, e.Clock)
}

// BlockedProc is one processor's blocked state in a deadlock report:
// the source attribution recorded by SetContext, the primitive it was
// blocked in, the link partner, and its virtual clock.
type BlockedProc struct {
	PID   int
	Proc  string
	Line  int
	Op    string
	Peer  int
	Clock float64
}

func (b BlockedProc) String() string {
	site := "(unattributed)"
	if b.Proc != "" {
		site = b.Proc
		if b.Line != 0 {
			site = fmt.Sprintf("%s:%d", b.Proc, b.Line)
		}
	}
	return fmt.Sprintf("p%-3d %-10s peer=p%-3d at %-18s clock=%.1fµs",
		b.PID, b.Op, b.Peer, site, b.Clock)
}

// DeadlockError is the structured report the machine produces when
// every live processor is blocked on a link (or when the wall-clock
// deadline expires): one line per blocked processor, sorted by pid.
type DeadlockError struct {
	// Deadline is true when the wall-clock deadline expired, false when
	// every live processor was found blocked.
	Deadline bool
	// Elapsed is the wall-clock time from the first node program's
	// launch to the detection.
	Elapsed time.Duration
	// Live is the number of node programs still running at detection.
	Live int
	// Blocked lists the blocked processors in pid order.
	Blocked []BlockedProc
}

func (e *DeadlockError) Error() string {
	var b strings.Builder
	if e.Deadline {
		fmt.Fprintf(&b, "machine: wall-clock deadline exceeded after %v (%d of %d live processors blocked on links)",
			e.Elapsed.Round(time.Millisecond), len(e.Blocked), e.Live)
	} else {
		fmt.Fprintf(&b, "machine: deadlock: all %d live processors blocked on links", e.Live)
	}
	for _, bp := range e.Blocked {
		fmt.Fprintf(&b, "\n  %s", bp)
	}
	return b.String()
}

// blockInfo is one processor's registered blocking state, written
// under Machine.mu by the blocking processor itself (copying its own
// attribution context, which only it writes) and read by the deadlock
// report.
type blockInfo struct {
	active bool
	op     string
	peer   int
	proc   string
	line   int
	clock  float64
}

// Abort cancels the run: the first call latches (origin, cause) and
// closes the done channel, unblocking every processor waiting in a
// communication primitive with an *AbortError that wraps cause.
// Subsequent calls are no-ops. origin is the failing processor's pid,
// or -1 for machine-level failures (deadlock, deadline).
func (m *Machine) Abort(origin int, cause error) {
	m.abortOnce.Do(func() {
		m.abortOrigin = origin
		m.abortCause = cause
		m.aborted.Store(true)
		close(m.done)
	})
}

// Err returns the run-level failure latched by Abort (nil for a clean
// run). Meaningful after Wait.
func (m *Machine) Err() error {
	if !m.aborted.Load() {
		return nil
	}
	return m.abortCause
}

// ProcErr returns the error processor p's node program was terminated
// with (an *AbortError, *CongestionError or *PanicError), or nil when
// it finished normally. Meaningful after Wait.
func (m *Machine) ProcErr(p int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.procErrs[p]
}

// block registers the processor as blocked on a link before it parks;
// unblock clears the registration when the operation completes. The op
// label prefers the SetContext operation ("bcast", "allgather", ...)
// over the primitive name.
func (p *Proc) block(prim string, peer int) {
	op := prim
	if p.ctxOp != "" {
		op = p.ctxOp
	}
	m := p.m
	m.mu.Lock()
	m.blocked[p.id] = blockInfo{active: true, op: op, peer: peer,
		proc: p.ctxProc, line: p.ctxLine, clock: p.stats.Clock}
	m.mu.Unlock()
}

func (p *Proc) unblock() {
	m := p.m
	m.mu.Lock()
	m.blocked[p.id] = blockInfo{}
	m.mu.Unlock()
}

// abortNow terminates the calling node program with an *AbortError
// describing what it was doing, emitting a KindAbort trace event.
// It never returns.
func (p *Proc) abortNow(prim string, peer int) {
	m := p.m
	op := prim
	if p.ctxOp != "" {
		op = p.ctxOp
	}
	err := &AbortError{
		PID: p.id, Origin: m.abortOrigin, Op: op, Peer: peer,
		Clock: p.stats.Clock, Proc: p.ctxProc, Line: p.ctxLine,
		Cause: m.abortCause,
	}
	if m.tr != nil {
		name := "abort"
		if _, ok := m.abortCause.(*DeadlockError); ok {
			name = "deadlock"
		}
		src, dst := p.id, peer
		if prim == "recv" {
			src, dst = peer, p.id
		}
		if peer < 0 {
			src, dst = p.id, p.id
		}
		m.tr.Emit(trace.Event{
			Kind: trace.KindAbort, Name: name,
			Proc: p.ctxProc, Line: p.ctxLine,
			PID: p.id, Src: src, Dst: dst,
			Start: p.stats.Clock,
		})
	}
	panic(abortPanic{err})
}

// deadlockReport snapshots the blocked set into a structured report.
func (m *Machine) deadlockReport(deadline bool, elapsed time.Duration) *DeadlockError {
	m.mu.Lock()
	defer m.mu.Unlock()
	dl := &DeadlockError{Deadline: deadline, Elapsed: elapsed, Live: m.running}
	for pid, b := range m.blocked {
		if !b.active {
			continue
		}
		dl.Blocked = append(dl.Blocked, BlockedProc{
			PID: pid, Proc: b.proc, Line: b.line,
			Op: b.op, Peer: b.peer, Clock: b.clock,
		})
	}
	return dl
}
