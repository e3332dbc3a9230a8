// Package machine simulates a MIMD distributed-memory machine in the
// style of the iPSC/860 the paper evaluated on: P processors, each with
// private memory, connected by an interconnect with per-message latency
// and per-word transfer cost. Time is virtual: every processor advances
// its own clock for computation, and message receipt synchronizes the
// receiver's clock with the sender's send time plus the transfer cost.
//
// The machine is a discrete-event core: node programs run as coroutines
// under a single-threaded virtual-time scheduler with one event heap,
// pooled message payloads (the hot path allocates nothing per message)
// and link state proportional to the pairs actually communicating, so
// P=1024 and beyond are routine (des.go): the machine's memory grows
// with P plus the links in use. Its statistics are per processor; who
// sent how much to whom is read off a traced run (trace.Event.Traffic,
// analyze.Matrix), not counted here. The
// simulation is deterministic for deterministic node programs: Stats
// and the sorted trace exports are a function of the node programs, the
// cost model and the fault plan alone.
//
// All cost accounting, tracing and fault injection live in the Proc
// methods; the engine behind them only moves messages and schedules
// node programs. That seam exists for the tests: chan_oracle_test.go
// keeps the original goroutine-per-processor engine, and
// TestEngineDifferential holds the two to equal Stats, traces and
// payloads on generated programs.
package machine

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"fortd/internal/trace"
)

// Config sets the machine's size and cost model. Times are in
// microseconds, matching published iPSC/860 figures: ~70µs message
// startup, ~0.4µs per 8-byte word (≈2.8 MB/s), ~0.1µs per flop.
type Config struct {
	P        int
	Latency  float64 // message startup cost (α)
	PerWord  float64 // transfer cost per word (β)
	FlopCost float64 // cost of one arithmetic operation
	// LinkDepth is each link's buffered capacity in messages
	// (0: DefaultLinkDepth). A sender that fills a link fails the run
	// with a *CongestionError naming the (src, dst) pair.
	LinkDepth int
	// Deadline bounds the run's wall-clock time (0: none). When it
	// expires the machine aborts with a *DeadlockError report marked
	// Deadline, unblocking every processor.
	Deadline time.Duration
}

// DefaultLinkDepth is the per-link message buffer when LinkDepth is 0:
// deep enough that generated communication patterns never fill it.
const DefaultLinkDepth = 8192

// DefaultConfig returns an iPSC/860-like machine with p processors.
func DefaultConfig(p int) Config {
	return Config{P: p, Latency: 70.0, PerWord: 0.4, FlopCost: 0.1}
}

// Stats aggregates execution statistics: machine-wide totals and one
// ProcStats per processor. Per-pair traffic is not kept; a traced run's
// analyze.Matrix has it, by processor group above 64 processors.
type Stats struct {
	Messages  int64   // point-to-point messages delivered
	Received  int64   // point-to-point messages consumed by a Recv
	Words     int64   // data words transferred
	Flops     int64   // arithmetic operations executed
	Remaps    int64   // physical array remappings
	Time      float64 // parallel execution time = max processor clock
	PerProc   []ProcStats
	Broadcast int64 // messages that were part of broadcast/gather ops
}

// ProcStats is one processor's view.
type ProcStats struct {
	Clock    float64
	Sent     int64
	Received int64
	Words    int64
	Flops    int64
	// RemapMsgs is the subset of Sent charged by CountRemap, messages that
	// no Recv consumes: 0 in every compiled run, whose remaps send real
	// messages, and non-zero only for a caller that charges volume there
	// (the benchmark's replay of older traces, the machine's own tests).
	RemapMsgs int64
	// Wait is the cumulative virtual time the processor spent blocked in
	// Recv for messages that had not yet arrived (idle time).
	Wait float64
}

func (s Stats) String() string {
	return fmt.Sprintf("time=%.1fµs msgs=%d words=%d flops=%d remaps=%d",
		s.Time, s.Messages, s.Words, s.Flops, s.Remaps)
}

// message travels between processors.
type message struct {
	data     []float64
	sendTime float64
	seq      int64   // trace message id (0 when tracing is disabled)
	delay    float64 // injected delivery delay (fault plan)
	dup      bool    // injected duplicate: the receiver discards it
	// again: data is what this processor's previous deliver carried,
	// unchanged, and nothing ran on the machine in between (a duplicate;
	// a broadcast root's next child). An engine that copies payloads may
	// share that copy.
	again bool
}

// arrival is the receiver-clock delivery time of the message under the
// machine's cost model: send time + startup latency + per-word transfer
// + any injected delay. Every receive path uses this one definition.
func (m message) arrival(cfg *Config) float64 {
	return m.sendTime + cfg.Latency + float64(len(m.data))*cfg.PerWord + m.delay
}

// engine is what runs behind the Machine API. All cost accounting,
// statistics, tracing and fault injection live in the Proc methods; an
// engine only moves messages, schedules node programs, and parks/wakes
// receivers. Production code has one, the discrete-event core; the
// interface is kept because the tests substitute their oracle through
// it.
type engine interface {
	// start launches processor pid's node program (Machine.Go).
	start(pid int, fn func(*Proc))
	// wait blocks until every launched node program has finished
	// (Machine.Wait); it must guarantee the run terminates, turning a
	// deadlocked schedule into an abort.
	wait()
	// deliver enqueues one message on the src→dst link, reporting false
	// when the link is full (the shared caller turns that into a
	// *CongestionError). After a true return msg.data is the sender's
	// again: the engine has taken its copy or its reference.
	deliver(src, dst int, msg message) bool
	// receive blocks processor p until a message from from is
	// available, registering it as blocked via p.block/p.unblock (the
	// deadlock report reads the registrations) and unwinding it via
	// p.abortNow when the run is aborted. The returned payload is
	// machine-owned: it stays valid until p's next Recv.
	receive(p *Proc, from int) message
	// scratch returns an n-word staging buffer for processor pid to
	// build an outgoing payload in, valid until pid's next scratch.
	scratch(pid, n int) []float64
}

// Machine is one simulated machine instance. Create with New, obtain
// per-processor handles with Proc, run the node programs concurrently,
// then read Stats after Wait.
type Machine struct {
	cfg   Config
	depth int // resolved LinkDepth
	eng   engine
	procs []*Proc
	wg    sync.WaitGroup
	tr    *trace.Tracer // nil: tracing disabled
	fault *FaultPlan    // nil: no fault injection

	// cooperative-abort state: the first failure latches (origin,
	// cause) and closes done, unblocking every communication primitive
	done        chan struct{}
	aborted     atomic.Bool
	abortOnce   sync.Once
	abortOrigin int
	abortCause  error

	// per-processor blocked registrations and exit errors. mu orders the
	// processors' writes with the deadlock report, which the wall-clock
	// deadline builds from its timer's goroutine.
	mu       sync.Mutex
	running  int // node programs launched and not yet finished
	blocked  []blockInfo
	procErrs []error
}

// New builds a machine.
func New(cfg Config) *Machine {
	if cfg.P < 1 {
		panic("machine: P must be >= 1")
	}
	depth := cfg.LinkDepth
	if depth <= 0 {
		depth = DefaultLinkDepth
	}
	m := &Machine{cfg: cfg,
		depth:    depth,
		done:     make(chan struct{}),
		blocked:  make([]blockInfo, cfg.P),
		procErrs: make([]error, cfg.P),
	}
	m.procs = make([]*Proc, cfg.P)
	procs := make([]Proc, cfg.P) // one object, not P
	for p := range procs {
		procs[p] = Proc{m: m, id: p, skew: 1}
		m.procs[p] = &procs[p]
	}
	m.eng = newDESEngine(m)
	return m
}

// P returns the processor count.
func (m *Machine) P() int { return m.cfg.P }

// Config returns the cost model.
func (m *Machine) Config() Config { return m.cfg }

// SetTracer attaches a tracer; every subsequent send, receive,
// broadcast step and remap emits one event. Call before Go.
func (m *Machine) SetTracer(t *trace.Tracer) { m.tr = t }

// Tracer returns the attached tracer (nil when tracing is disabled).
func (m *Machine) Tracer() *trace.Tracer { return m.tr }

// Proc returns processor p's handle.
func (m *Machine) Proc(p int) *Proc { return m.procs[p] }

// Go runs fn as processor p's node program. If the run is aborted
// while fn is blocked in a communication primitive (or between
// computations), fn is unwound and the processor's *AbortError is
// recorded (see ProcErr); any other panic in fn is recorded as the
// processor's *PanicError and aborts the run. Call Go from the
// goroutine that created the machine, before Wait.
func (m *Machine) Go(p int, fn func(*Proc)) {
	m.eng.start(p, fn)
}

// PanicError reports a node program that panicked with anything other
// than the machine's own abort unwind: a bug in the executor, or an
// input that slipped past its checks. The machine files it as that
// processor's error and aborts the run, so one bad program fails one
// run instead of taking the process (a daemon serving many) down.
type PanicError struct {
	PID   int
	Value any    // the recovered panic value
	Stack string // the panicking goroutine's stack, for the bug report
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("p%d: node program panicked: %v", e.PID, e.Value)
}

// recordProcExit files how processor pid's node program ended, given
// what its deferred recover returned: an abortPanic unwind records the
// processor's *AbortError, any other panic becomes a *PanicError that
// also aborts the run. It then decrements the live count.
func (m *Machine) recordProcExit(pid int, r any) {
	var err error
	switch v := r.(type) {
	case nil:
	case abortPanic:
		err = v.err
	default:
		err = &PanicError{PID: pid, Value: v, Stack: string(debug.Stack())}
		m.Abort(pid, err)
	}
	m.mu.Lock()
	if err != nil {
		m.procErrs[pid] = err
	}
	m.running--
	m.mu.Unlock()
}

// Wait blocks until every node program launched with Go has finished
// and returns the run-level failure, if any: the error passed to
// Abort, a *CongestionError, or the deadlock report. A run on this
// machine cannot hang: a deadlocked schedule is detected and reported
// instead (see abort.go).
func (m *Machine) Wait() error {
	m.eng.wait()
	return m.Err()
}

// Stats collects the machine-wide statistics. Call after Wait, when no
// processor can write its counters again.
func (m *Machine) Stats() Stats {
	var s Stats
	s.PerProc = make([]ProcStats, m.cfg.P)
	for i, p := range m.procs {
		s.PerProc[i] = p.stats
		if p.stats.Clock > s.Time {
			s.Time = p.stats.Clock
		}
		s.Messages += p.stats.Sent
		s.Received += p.stats.Received
		s.Words += p.stats.Words
		s.Flops += p.stats.Flops
		// a physical remap is a collective operation: every processor
		// participates once, so the count is the per-processor maximum
		if p.remaps > s.Remaps {
			s.Remaps = p.remaps
		}
		s.Broadcast += p.bcast
	}
	return s
}

// Proc is one simulated processor.
type Proc struct {
	m      *Machine
	id     int
	stats  ProcStats
	remaps int64
	bcast  int64
	// trace attribution context, set by the interpreter before each
	// communication statement: the owning procedure, source line and
	// operation kind. Written only by this processor's goroutine; the
	// deadlock report reads a copy taken under the machine lock
	// (blockInfo).
	ctxProc string
	ctxLine int
	ctxOp   string
	// fault-injection state (see fault.go): the per-sender random
	// stream, the straggler flop-cost multiplier, duplicates injected.
	frng  faultRand
	skew  float64
	fdups int
	// seqCtr counts this processor's traced sends; message sequence ids
	// are derived from (id, seqCtr) so they depend only on each sender's
	// program order, never on goroutine scheduling — a deterministic run
	// exports byte-identical traces.
	seqCtr int64
}

// faultRand is the per-sender random stream (nil: no plan attached).
type faultRand interface{ Float64() float64 }

// SetContext records the source attribution (procedure, line,
// operation) carried by every trace event this processor emits until
// the next call, and by its entry in a deadlock report.
func (p *Proc) SetContext(proc string, line int, op string) {
	p.ctxProc, p.ctxLine, p.ctxOp = proc, line, op
}

// op returns the operation label for emitted events ("send" when the
// interpreter never set a context, e.g. hand-driven machine tests).
func (p *Proc) op() string {
	if p.ctxOp == "" {
		return "send"
	}
	return p.ctxOp
}

// ID returns the processor number in [0, P).
func (p *Proc) ID() int { return p.id }

// Clock returns the processor's current virtual time.
func (p *Proc) Clock() float64 { return p.stats.Clock }

// Compute advances the clock by n arithmetic operations (scaled by the
// fault plan's straggler skew, if any). It is also a cancellation
// point: an aborted run unwinds compute-bound node programs here.
func (p *Proc) Compute(n int) {
	if p.m.aborted.Load() {
		p.abortNow("compute", -1)
	}
	p.stats.Flops += int64(n)
	p.stats.Clock += float64(n) * p.m.cfg.FlopCost * p.skew
}

// ComputeStrip charges n iterations of a loop whose body's statements
// cost flops[0], flops[1], .. each: what n·len(flops) Compute calls in
// iteration-major order would charge, with the clock's additions in
// that order, so the result is the same to the last bit. It is one
// cancellation point, not one per call.
func (p *Proc) ComputeStrip(n int, flops []int) {
	if p.m.aborted.Load() {
		p.abortNow("compute", -1)
	}
	clock, cost, skew := p.stats.Clock, p.m.cfg.FlopCost, p.skew
	for i := 0; i < n; i++ {
		for _, f := range flops {
			clock += float64(f) * cost * skew
		}
	}
	p.stats.Clock = clock
	for _, f := range flops {
		p.stats.Flops += int64(n * f)
	}
}

// CheckAbort is a cancellation point that costs no virtual time: it
// unwinds the node program if the run has been aborted and does nothing
// otherwise. Loops that neither compute nor communicate call it so a
// deadline or a cancelled context can still stop them.
func (p *Proc) CheckAbort() {
	if p.m.aborted.Load() {
		p.abortNow("compute", -1)
	}
}

// Tick advances the clock by an explicit cost.
func (p *Proc) Tick(cost float64) {
	if p.m.aborted.Load() {
		p.abortNow("compute", -1)
	}
	p.stats.Clock += cost
}

// Scratch returns an n-word staging buffer for building an outgoing
// payload (Send/Broadcast argument). The buffer's contents are only
// guaranteed until the processor's next Scratch call, so build one
// payload at a time: it is one reused buffer per processor, so staging
// allocates nothing in steady state.
func (p *Proc) Scratch(n int) []float64 {
	return p.m.eng.scratch(p.id, n)
}

// Send transmits data to processor to. The sender is charged the
// message startup; delivery time is carried on the message. Send never
// blocks: a full link fails the run with a *CongestionError naming the
// congested pair, and an aborted run unwinds the sender with an
// *AbortError. The caller's slice is its own again when Send returns:
// the machine took the payload's one copy, or, for a payload the caller
// has just received and is passing on, a reference to the buffer it
// already owns.
func (p *Proc) Send(to int, data []float64) { p.send(to, data, false) }

// send is Send; again marks data as the payload of this processor's
// previous send, unchanged and with no other machine call in between,
// which the engine may then share instead of copying once more.
func (p *Proc) send(to int, data []float64, again bool) {
	if to == p.id {
		// local move: no message
		return
	}
	if p.m.aborted.Load() {
		p.abortNow("send", to)
	}
	start := p.stats.Clock
	p.stats.Clock += p.m.cfg.Latency
	p.stats.Sent++
	p.stats.Words += int64(len(data))
	var seq int64
	if p.m.tr != nil {
		p.seqCtr++
		seq = int64(p.id)<<32 | p.seqCtr
		p.m.tr.Emit(trace.Event{
			Kind: trace.KindSend, Name: p.op(),
			Proc: p.ctxProc, Line: p.ctxLine,
			PID: p.id, Src: p.id, Dst: to, Words: len(data),
			Start: start, Dur: p.stats.Clock - start, Seq: seq,
		})
	}
	msg := message{data: data, sendTime: p.stats.Clock, seq: seq, again: again}
	delay, dup := p.injectSendFaults(to, len(data), seq)
	msg.delay = delay
	p.deliver(to, msg)
	if dup {
		d := msg
		d.dup, d.again = true, true
		p.deliver(to, d)
	}
}

// deliver enqueues one message, failing the run on a full link.
func (p *Proc) deliver(to int, msg message) {
	if p.m.eng.deliver(p.id, to, msg) {
		return
	}
	err := &CongestionError{
		Src: p.id, Dst: to, Depth: p.m.depth,
		Proc: p.ctxProc, Line: p.ctxLine, Clock: p.stats.Clock,
	}
	p.m.Abort(p.id, err)
	panic(abortPanic{err})
}

// Recv blocks until a message from processor from arrives, advancing
// the clock to the delivery time. It unblocks with an *AbortError when
// the run is aborted (a peer failed, deadlock was detected, or the
// deadline expired) instead of hanging forever on a mismatched
// schedule. Injected duplicate messages are detected and discarded,
// charging only the delivery stall.
//
// The returned slice is machine-owned and read-only (other processors
// may be reading the same buffer), and stays valid until this
// processor's next Recv, which gives up its reference to the buffer;
// copy out anything needed longer.
func (p *Proc) Recv(from int) []float64 {
	if from == p.id {
		return nil
	}
	return p.recvAs(from, trace.KindRecv)
}

// recvAs is the shared receive loop behind Recv (KindRecv) and
// WaitHandle (KindWait): engine receive with duplicate-drop, arrival
// accounting against the single message.arrival definition, and one
// trace event of the given kind. Keeping blocking and split-phase
// receives on one code path is what makes their clocks identical by
// construction.
func (p *Proc) recvAs(from int, kind trace.Kind) []float64 {
	for {
		msg := p.m.eng.receive(p, from)
		if msg.dup {
			p.dropDuplicate(from, msg)
			continue
		}
		start := p.stats.Clock
		arrival := msg.arrival(&p.m.cfg)
		if arrival > p.stats.Clock {
			p.stats.Wait += arrival - p.stats.Clock
			p.stats.Clock = arrival
		}
		p.stats.Received++
		if p.m.tr != nil {
			p.m.tr.Emit(trace.Event{
				Kind: kind, Name: p.op(),
				Proc: p.ctxProc, Line: p.ctxLine,
				PID: p.id, Src: from, Dst: p.id, Words: len(msg.data),
				Start: start, Dur: p.stats.Clock - start, Seq: msg.seq,
			})
		}
		return msg.data
	}
}

// Broadcast distributes data from root to the processors of g (for
// anyone else a no-op) and returns it, the root's own copy on the root.
// The implementation is a binomial tree over the root and g (bcastTree),
// the pattern the iPSC hypercube's library broadcast used: log₂ of their
// number message steps on the critical path — or, for a g.Ring group,
// the ring of ringLinks.
func (p *Proc) Broadcast(root int, g Group, data []float64) []float64 {
	t := newTree(root, p.m.cfg.P, g)
	rank, ok := t.rank(p.id)
	if !ok {
		return data
	}
	var buf [64]int
	parent, children := t.links(rank, buf[:0])
	if parent >= 0 {
		data = p.Recv(t.pid(parent))
	}
	for i, c := range children {
		p.send(t.pid(c), data, i > 0)
		p.bcast++
	}
	return data
}

// AllReduce combines every processor's value and returns the result on
// every processor, by recursive doubling — the hypercube's dimension
// exchange, and MPICH's short-message allreduce. All processors must
// call it. In round k = 1, 2, 4, ... a processor holds the combination
// of its aligned block of k ranks and swaps it with the pair block's
// rank id^k. When the upper block is the partial last one, its ranks
// send to their partner first and then to the lower ranks that have
// none; a block with no upper block sits the round out. Both sides fold
// lower ⊕ upper, so every processor returns the same bits: the binomial
// expression a combining tree into processor 0 builds. That is
// ceil(log2 P) flights on the critical path, and every processor
// receives at most one message per round.
func (p *Proc) AllReduce(value float64, combine func(acc, v float64) float64) float64 {
	np, id := p.m.cfg.P, p.id
	acc := value
	for k := 1; k < np; k <<= 1 {
		lo := id &^ (2*k - 1) // this round's lower block; the upper starts at lo+k
		up := lo + k
		if up >= np {
			continue
		}
		m := min(np-up, k) // ranks the upper block has
		buf := p.Scratch(1)
		buf[0] = acc
		if id >= up {
			for j := id - up; j < k; j += m {
				p.send(lo+j, buf, j > id-up)
				p.bcast++
			}
			acc = combine(p.Recv(id - k)[0], acc)
		} else {
			if id+k < np {
				p.Send(id+k, buf)
				p.bcast++
			}
			acc = combine(acc, p.Recv(up + (id-lo)%m)[0])
		}
	}
	return acc
}

// CountRemap records a physical remap, charging words moved in partners
// messages that no Recv consumes: none for a compiled run's, which pass (0, 0).
func (p *Proc) CountRemap(words, partners int) {
	p.remaps++
	start := p.stats.Clock
	p.stats.Sent += int64(partners)
	p.stats.RemapMsgs += int64(partners)
	p.stats.Words += int64(words)
	p.stats.Clock += float64(partners)*p.m.cfg.Latency + float64(words)*p.m.cfg.PerWord
	if p.m.tr != nil {
		p.m.tr.Emit(trace.Event{
			Kind: trace.KindRemap, Name: "remap",
			Proc: p.ctxProc, Line: p.ctxLine,
			PID: p.id, Src: p.id, Dst: p.id, Words: words,
			Start: start, Dur: p.stats.Clock - start,
			Value: int64(partners),
		})
	}
}
