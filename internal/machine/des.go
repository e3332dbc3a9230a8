//go:build go1.23

// iter.Pull needs Go 1.23; go.mod stays at 1.22 because bench/go.mod pins it.

// The discrete-event engine: node programs run as coroutines under a
// single-threaded virtual-time scheduler.
//
// Scheduling protocol. Exactly one node program runs at a time: the
// scheduler (executing inside Machine.Wait) resumes a processor through
// an iter.Pull coroutine, a direct switch that returns when that
// processor either parks in receive (yields) or finishes. This strict
// handoff means every field of desEngine — links, slots, pools, waiter table,
// scratch buffers, the event queue — is accessed by one goroutine at a
// time with happens-before edges through the coroutine switch, so none
// of it needs locks. A processor runs until it blocks: Send never blocks
// (congestion is a failure), so the only yield points are Recv on an
// empty link and program exit. Coroutines follow the processors that
// park, not P: a processor takes one at its start event (the idle one,
// else a new one); when its program ends the coroutine idles for the
// next start event, if one is pending, or ends. Every start event
// precedes every wakeup, so a run makes at most (processors parked at
// once) + 1 and leaves none to stop.
//
// Virtual time. The event queue orders processor resumptions by
// (time, seq, pid). A processor blocked in Recv is woken by an event at
// the message's arrival time; because each processor's clock only moves
// forward and all cost math lives in shared Proc code, the order in
// which independent processors run cannot change any clock, stat, or
// trace event (TestEngineDifferential pins it against an engine that
// runs them as free goroutines).
//
// Link state follows the messages in flight: one table gives each
// src→dst pair that has carried a message a dense index into links (no
// object of its own), and the messages sit in one slab of slots, each
// link's FIFO and the free list threaded through it: the slab holds as
// many slots as were ever in flight at once, however many links used them.
//
// Payload ownership. A payload is copied once, at the send that
// originates it, into a reference-counted buffer from a power-of-two
// size-class free list; from then on it is machine-owned and read-only.
// A slot holds one reference, Recv moves it to the receiving
// processor (which gives it up on its next Recv), and sending a payload
// on — a broadcast tree's forward, an injected duplicate, the root's
// second child — takes another reference instead of a copy. The last
// release returns the buffer to the pool. In steady state (slots, heaps
// and pool at high-water mark) a message moves through the machine with
// zero allocations — BenchmarkMachineMessage pins it.
//
// Deadlock is structural here, not sampled: when the event queue runs
// dry while live processors remain, every one of them is provably
// blocked on a link that can never fire, and the engine aborts with a
// *DeadlockError report of them (Deadline=false). A wall-clock
// Config.Deadline is honored with a timer because a DES can also
// livelock in real time (e.g. an infinite Compute loop advancing
// virtual time forever).
package machine

import (
	"iter"
	"math"
	"math/bits"
	"time"
)

// payload is a pooled message buffer with its reference count: one per
// slot carrying it plus one per processor holding it as its last
// received message. A buffer keeps its header for life: the two travel
// through the pool together.
type payload struct {
	data []float64 // the whole buffer; a message carries a prefix of it
	refs int32
}

// slot is a message in flight, its payload by reference, and the next
// slot of its link's FIFO or of the free list (-1: none).
type slot struct {
	buf      *payload // nil: a zero-word message
	sendTime float64
	seq      int64
	delay    float64
	n        int32 // payload length in words: buf.data[:n]
	next     int32
	dup      bool
}

// link is the src→dst FIFO through the slots: first, last and length.
type link struct{ src, dst, head, tail, n int32 }

// grow returns s one zero element longer, doubling a full capacity: a
// slab of n has cost 2n, not append's 5n (it grows large slices by 1/4).
func grow[T any](s []T) []T {
	if len(s) == cap(s) {
		s = append(make([]T, 0, max(16, 2*cap(s))), s...)
	}
	return s[:len(s)+1]
}

// bufPool recycles payloads by power-of-two size class. Every buffer it
// hands out has a power-of-two length, so class lookup is a bit scan.
// Zero-word payloads are represented as nil and never pooled,
// preserving the existing zero-word message semantics.
type bufPool struct {
	classes [33][]*payload
	// headers and buffers of up to 64 words come from slabs half as large
	// as all buffers made before: a few allocations, not one per buffer
	slab  []payload
	words []float64
	made  int // buffers ever allocated: pooled + referenced
}

// get returns a buffer of at least n > 0 words holding one reference.
func (bp *bufPool) get(n int) *payload {
	c := bits.Len(uint(n - 1)) // smallest c with 1<<c >= n
	var b *payload
	if s := bp.classes[c]; len(s) > 0 {
		b = s[len(s)-1]
		bp.classes[c] = s[:len(s)-1]
	} else {
		if len(bp.slab) == 0 {
			bp.slab = make([]payload, max(64, bp.made/2))
		}
		b, bp.slab = &bp.slab[0], bp.slab[1:]
		if w := 1 << c; w > 64 {
			b.data = make([]float64, w)
		} else {
			if len(bp.words) < w {
				bp.words = make([]float64, max(64, bp.made/2))
			}
			b.data, bp.words = bp.words[:w:w], bp.words[w:]
		}
		bp.made++
	}
	b.refs = 1
	return b
}

// release drops one reference to b (nil: a zero-word payload); the last
// one returns the buffer to the pool.
func (bp *bufPool) release(b *payload) {
	if b == nil {
		return
	}
	if b.refs--; b.refs == 0 {
		c := bits.Len(uint(len(b.data))) - 1
		bp.classes[c] = append(bp.classes[c], b)
	}
}

type desEngine struct {
	m   *Machine
	q   eventHeap
	seq uint64 // event creation order (the queue's tie-break)

	// coroutine handoff: resume[pid] runs processor pid until it parks or
	// finishes (nil before its start event); park[pid] switches back from
	// inside it. idle waits for the next start event, which runs fns[next].
	resume   []func() (struct{}, bool)
	park     []func(struct{}) bool
	fns      []func(*Proc)
	idle     func() (struct{}, bool)
	next     int
	starts   int    // start events not yet dispatched
	made     int    // coroutines made
	parked   []bool // blocked in receive, waiting for resume
	finished []bool
	live     int // started and not yet finished

	// links holds every link used, in order of first use; ids finds one:
	// open-addressed, a link's index + 1 (0: empty). Every link's FIFO and
	// the free list (free: its first slot, -1: none) chain through slots. waiter[dst] is the sender pid dst is parked on with no wakeup
	// event scheduled yet (-1 otherwise); deliver clears it when it
	// schedules the wakeup.
	ids    []int32
	links  []link
	slots  []slot
	free   int32
	waiter []int

	// payload ownership: held[pid] is the buffer pid's last Recv handed
	// out, released on its next one; last is the buffer of the most
	// recent deliver, which a message marked again shares.
	pool        bufPool
	held        []*payload
	last        *payload
	scratchBufs [][]float64

	wallStart time.Time
	timer     *time.Timer // wall-clock Deadline (nil: none)
}

func newDESEngine(m *Machine) *desEngine {
	p := m.cfg.P
	e := &desEngine{
		m:           m,
		resume:      make([]func() (struct{}, bool), p),
		park:        make([]func(struct{}) bool, p),
		fns:         make([]func(*Proc), p),
		parked:      make([]bool, p),
		finished:    make([]bool, p),
		free:        -1,
		waiter:      make([]int, p),
		held:        make([]*payload, p),
		scratchBufs: make([][]float64, p),
	}
	for i := range e.waiter {
		e.waiter[i] = -1
	}
	e.q.ev = make([]event, 0, p)
	return e
}

// push schedules processor pid to resume at virtual time t.
func (e *desEngine) push(t float64, pid int) {
	e.seq++
	e.q.push(event{time: t, seq: e.seq, pid: pid})
}

func (e *desEngine) start(pid int, fn func(*Proc)) {
	m := e.m
	if e.live == 0 && e.wallStart.IsZero() {
		e.wallStart = time.Now()
		if m.cfg.Deadline > 0 {
			e.timer = time.AfterFunc(m.cfg.Deadline, func() {
				m.Abort(-1, m.deadlockReport(true, time.Since(e.wallStart)))
			})
		}
	}
	m.mu.Lock()
	m.running++
	m.mu.Unlock()
	e.live++
	e.starts++
	e.fns[pid] = fn
	e.push(0, pid) // start event: node programs launch in Go-call order
}

// spawn makes a coroutine that runs fns[next], then, while a start event
// is pending and no other coroutine idles, the next start event's.
func (e *desEngine) spawn() (func() (struct{}, bool), func()) {
	e.made++
	return iter.Pull(func(park func(struct{}) bool) {
		for {
			pid := e.next
			e.park[pid] = park
			e.runProc(pid)
			if e.starts == 0 || e.idle != nil {
				return
			}
			e.idle = e.resume[pid] // this coroutine
			park(struct{}{})
		}
	})
}

// runProc runs processor pid's node program and files how it ended.
func (e *desEngine) runProc(pid int) {
	defer func() {
		e.m.recordProcExit(pid, recover())
		e.finished[pid] = true
	}()
	e.fns[pid](e.m.procs[pid])
}

func (e *desEngine) wait() {
	e.run()
	if e.timer != nil {
		e.timer.Stop()
	}
}

// run is the scheduler loop. It terminates for every schedule: either
// all processors finish, or the queue runs dry with live processors
// (structural deadlock → abort → drain), or an abort arrives from
// outside (the deadline timer, a node program's Machine.Abort, a
// context watcher) and the drain unwinds everything parked or pending.
func (e *desEngine) run() {
	m := e.m
	for e.live > 0 {
		if m.aborted.Load() {
			e.drainAfterAbort()
			return
		}
		ev, ok := e.q.pop()
		if !ok {
			// No runnable processor and no pending arrival: every live
			// processor is parked on a link that can never fire.
			m.Abort(-1, m.deadlockReport(false, time.Since(e.wallStart)))
			continue
		}
		if e.finished[ev.pid] {
			continue
		}
		e.resumeProc(ev.pid)
	}
}

// drainAfterAbort runs the machine down after an abort: every parked
// processor is woken (it observes the abort and unwinds via abortNow),
// and remaining queue events — including start events of programs that
// never ran — are still dispatched: an abort stops a node program only
// at its next cancellation point, so one that has none (or has not
// started) runs to completion, whichever order the scheduler reached
// them in.
func (e *desEngine) drainAfterAbort() {
	for e.live > 0 {
		for pid := range e.parked {
			if e.parked[pid] && !e.finished[pid] {
				e.resumeProc(pid)
			}
		}
		if e.live == 0 {
			return
		}
		ev, ok := e.q.pop()
		if !ok {
			// unreachable: a live processor is either parked (woken
			// above) or has its start/wakeup event still queued
			panic("machine: des drain stuck with live processors")
		}
		if !e.finished[ev.pid] && !e.parked[ev.pid] {
			e.resumeProc(ev.pid)
		}
	}
}

// resumeProc runs one processor until it parks or finishes.
func (e *desEngine) resumeProc(pid int) {
	if e.resume[pid] == nil { // its start event: the idle coroutine, or a new one
		e.starts--
		e.next = pid
		if e.resume[pid], e.idle = e.idle, nil; e.resume[pid] == nil {
			e.resume[pid], _ = e.spawn()
		}
	}
	e.resume[pid]()
	if e.finished[pid] {
		e.live--
	}
}

// link returns the index of the src→dst link, adding it on first use.
func (e *desEngine) link(src, dst int) int32 {
	if 2*len(e.links) >= len(e.ids) { // keep the table at most half full
		e.ids = make([]int32, max(64, 2*len(e.ids)))
		for i, l := range e.links {
			e.ids[e.find(int(l.src), int(l.dst))] = int32(i + 1)
		}
	}
	h := e.find(src, dst)
	if e.ids[h] == 0 {
		e.links = grow(e.links)
		e.links[len(e.links)-1] = link{src: int32(src), dst: int32(dst)}
		e.ids[h] = int32(len(e.links))
	}
	return e.ids[h] - 1
}

// find returns where the src→dst link's index is in ids, or the empty
// entry where it goes: linear probing from a Fibonacci hash of the pair.
func (e *desEngine) find(src, dst int) int {
	mask := len(e.ids) - 1
	h := int((uint64(src)<<32|uint64(dst))*0x9e3779b97f4a7c15>>32) & mask
	for i := e.ids[h]; i != 0 && (e.links[i-1].src != int32(src) || e.links[i-1].dst != int32(dst)); i = e.ids[h] {
		h = (h + 1) & mask
	}
	return h
}

func (e *desEngine) deliver(src, dst int, msg message) bool {
	l := &e.links[e.link(src, dst)]
	if int(l.n) >= e.m.depth {
		return false
	}
	n := len(msg.data)
	if n > math.MaxInt32 {
		panic("machine: payload longer than 2^31 words")
	}
	var buf *payload
	switch h := e.held[src]; {
	case n == 0:
	case msg.again:
		// the payload of the sender's previous deliver, unchanged
		buf = e.last
		buf.refs++
	case h != nil && &msg.data[0] == &h.data[0]:
		// what the sender last received: machine-owned already, and
		// nothing writes it while a reference is out
		buf = h
		buf.refs++
	default:
		// the sender keeps its slice (it may be a reused Scratch
		// buffer): this is the payload's one copy
		buf = e.pool.get(n)
		copy(buf.data, msg.data)
	}
	e.last = buf
	s := e.free
	if s < 0 {
		e.slots = grow(e.slots)
		s = int32(len(e.slots) - 1)
	} else {
		e.free = e.slots[s].next
	}
	e.slots[s] = slot{buf: buf, n: int32(n), sendTime: msg.sendTime, seq: msg.seq, delay: msg.delay, dup: msg.dup, next: -1}
	if l.n == 0 {
		l.head = s
	} else {
		e.slots[l.tail].next = s
	}
	l.tail = s
	l.n++
	if e.waiter[dst] == src {
		// the receiver is parked on exactly this link: schedule its
		// resumption at the message's arrival time, and clear the waiter
		// entry so a second send can't schedule a duplicate wakeup
		e.waiter[dst] = -1
		e.push(msg.arrival(&e.m.cfg), dst)
	}
	return true
}

func (e *desEngine) receive(p *Proc, from int) message {
	if p.m.aborted.Load() {
		p.abortNow("recv", from)
	}
	l := e.link(from, p.id) // an index: it holds across the park
	if e.links[l].n == 0 {
		p.block("recv", from)
		e.waiter[p.id] = from
		e.parked[p.id] = true
		e.park[p.id](struct{}{}) // back when a message arrived, or the run aborted
		e.parked[p.id] = false
		e.waiter[p.id] = -1
		p.unblock()
		if p.m.aborted.Load() {
			p.abortNow("recv", from)
		}
	}
	return e.take(p.id, l)
}

// take unlinks link l's head message, returns its slot to the free list
// and settles payload ownership: a real message's reference moves from
// the slot to the processor, which holds it until its next Recv; an
// injected duplicate's is released at once (the caller only reads its
// length, and no other processor can touch the pool before this one
// yields).
func (e *desEngine) take(pid int, l int32) message {
	lk := &e.links[l]
	s := lk.head
	q := e.slots[s]
	e.slots[s] = slot{next: e.free} // drop the payload pointer
	e.free, lk.head = s, q.next
	lk.n--
	msg := message{sendTime: q.sendTime, seq: q.seq, delay: q.delay, dup: q.dup}
	if q.buf != nil {
		msg.data = q.buf.data[:q.n:q.n]
	}
	if q.dup {
		e.pool.release(q.buf)
	} else {
		e.pool.release(e.held[pid])
		e.held[pid] = q.buf
	}
	return msg
}

// scratch reuses one grow-only buffer per processor: a send from it
// copies the payload out before it returns, so the node program is free
// to rebuild it for the next one.
func (e *desEngine) scratch(pid, n int) []float64 {
	if cap(e.scratchBufs[pid]) < n {
		e.scratchBufs[pid] = make([]float64, n)
	}
	return e.scratchBufs[pid][:n]
}
