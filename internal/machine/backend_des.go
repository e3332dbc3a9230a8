// The discrete-event engine (BackendDES): node programs run as
// coroutines under a single-threaded virtual-time scheduler.
//
// Scheduling protocol. Exactly one node program runs at a time: the
// scheduler (executing inside Machine.Wait) resumes a processor by
// sending on its resume channel, then blocks reading the yield channel
// until that processor either parks in receive or finishes. This strict
// handoff means every field of desEngine — rings, pool, waiter table,
// scratch buffers, the event queue — is accessed by one goroutine at a
// time with happens-before edges through the channels, so none of it
// needs locks. A processor runs until it blocks: Send never blocks
// (congestion is a failure), so the only yield points are Recv on an
// empty ring and program exit.
//
// Virtual time. The event queue orders processor resumptions by
// (time, seq, pid). A processor blocked in Recv is woken by an event at
// the message's arrival time; because each processor's clock only moves
// forward and all cost math lives in shared Proc code, the order in
// which independent processors run cannot change any clock, stat, or
// trace event — which is why this engine is trace-equivalent to the
// goroutine backend (the differential suite pins it).
//
// Link state is O(active): a receiver's inbox is a lazily-allocated
// map from sender pid to a growable message ring, so only pairs that
// actually communicate cost anything — versus the reference backend's
// eager P² × LinkDepth channel slots.
//
// Payload pooling. deliver copies the payload into a buffer from a
// power-of-two size-class free list; Recv hands that buffer to the node
// program and recycles it on the processor's next Recv. In steady state
// (rings, heaps and pool at high-water mark) a message moves through
// the machine with zero allocations — BenchmarkMachineMessage pins it.
//
// Deadlock is structural here, not sampled: when the event queue runs
// dry while live processors remain, every one of them is provably
// blocked on a link that can never fire, and the engine aborts with the
// same *DeadlockError report the watchdog builds (same BlockedProc
// attribution, Deadline=false). A wall-clock Config.Deadline is honored
// with a timer because a DES can also livelock in real time (e.g. an
// infinite Compute loop advancing virtual time forever).
package machine

import (
	"math/bits"
	"time"
)

// msgRing is one src→dst link's queue: a growable circular buffer.
// Steady-state push/pop allocate nothing.
type msgRing struct {
	buf  []message
	head int
	n    int
}

func (r *msgRing) push(m message) {
	if r.n == len(r.buf) {
		grown := make([]message, max(8, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = m
	r.n++
}

func (r *msgRing) pop() message {
	m := r.buf[r.head]
	r.buf[r.head] = message{} // drop the payload reference
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return m
}

// bufPool recycles message payloads by power-of-two size class. All
// buffers it hands out have power-of-two capacity, so class lookup is
// a bit scan. Zero-word payloads are represented as nil and never
// pooled, preserving the existing zero-word message semantics.
type bufPool struct {
	classes [33][][]float64
}

func (bp *bufPool) get(n int) []float64 {
	if n == 0 {
		return nil
	}
	c := bits.Len(uint(n - 1)) // smallest c with 1<<c >= n
	if s := bp.classes[c]; len(s) > 0 {
		buf := s[len(s)-1]
		bp.classes[c] = s[:len(s)-1]
		return buf[:n]
	}
	return make([]float64, n, 1<<c)
}

func (bp *bufPool) put(b []float64) {
	if cap(b) == 0 {
		return
	}
	c := bits.Len(uint(cap(b))) - 1 // exact for the pool's own buffers
	bp.classes[c] = append(bp.classes[c], b[:0])
}

type desEngine struct {
	m   *Machine
	q   eventQueue
	seq uint64 // event creation order (the queue's tie-break)

	// coroutine handoff: resume[pid] wakes one parked processor; yield
	// carries the pid back to the scheduler when it parks or finishes.
	resume   []chan struct{}
	yield    chan int
	parked   []bool // blocked in receive, waiting for resume
	finished []bool
	live     int // started and not yet finished

	// inbox[dst][src] is the src→dst ring, allocated on first use.
	// waiter[dst] is the sender pid dst is parked on with no wakeup
	// event scheduled yet (-1 otherwise); deliver clears it when it
	// schedules the wakeup.
	inbox  []map[int]*msgRing
	waiter []int

	// payload recycling: held[pid] is the buffer handed out by pid's
	// last Recv, returned to the pool on its next one.
	pool        bufPool
	held        [][]float64
	scratchBufs [][]float64

	wallStart time.Time
	timer     *time.Timer // wall-clock Deadline (nil: none)
}

func newDESEngine(m *Machine) *desEngine {
	p := m.cfg.P
	e := &desEngine{
		m:           m,
		resume:      make([]chan struct{}, p),
		yield:       make(chan int),
		parked:      make([]bool, p),
		finished:    make([]bool, p),
		inbox:       make([]map[int]*msgRing, p),
		waiter:      make([]int, p),
		held:        make([][]float64, p),
		scratchBufs: make([][]float64, p),
	}
	for i := range e.resume {
		e.resume[i] = make(chan struct{})
		e.waiter[i] = -1
	}
	e.q.initShards(desShardCount(p))
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
	m.wg.Add(1)
	m.mu.Lock()
	m.running++
	m.mu.Unlock()
	e.live++
	e.push(0, pid) // start event: node programs launch in Go-call order
	go func() {
		defer m.wg.Done()
		<-e.resume[pid] // park until the scheduler dispatches the start event
		defer func() {
			m.recordProcExit(pid, recover())
			e.finished[pid] = true
			e.yield <- pid
		}()
		fn(m.procs[pid])
	}()
}

func (e *desEngine) wait() {
	e.run()
	e.m.wg.Wait()
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
			// processor is parked on a link that can never fire. This is
			// the structural analogue of the goroutine backend's sampled
			// all-blocked detection, and it builds the same report. With
			// NoWatchdog and a Deadline, defer to the deadline (or an
			// external Abort) instead of reporting immediately; with
			// NoWatchdog and no Deadline the reference backend would hang
			// forever — this engine reports the deadlock anyway.
			if m.cfg.NoWatchdog && m.cfg.Deadline > 0 {
				<-m.done
				continue
			}
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
// never ran — are still dispatched, because on the reference backend
// every goroutine keeps running after an abort until it hits a
// cancellation point (or finishes without one).
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

// resumeProc wakes one parked processor and blocks until it parks
// again or finishes.
func (e *desEngine) resumeProc(pid int) {
	e.resume[pid] <- struct{}{}
	p := <-e.yield
	if e.finished[p] {
		e.live--
	}
}

// ring returns the src→dst ring, allocating it on first use.
func (e *desEngine) ring(src, dst int) *msgRing {
	box := e.inbox[dst]
	if box == nil {
		box = make(map[int]*msgRing, 4)
		e.inbox[dst] = box
	}
	r := box[src]
	if r == nil {
		r = &msgRing{}
		box[src] = r
	}
	return r
}

func (e *desEngine) deliver(src, dst int, msg message) bool {
	r := e.ring(src, dst)
	if r.n >= e.m.depth {
		return false
	}
	// copy the payload into a pooled, machine-owned buffer: the sender
	// keeps its slice (it may be a reused Scratch buffer), and each
	// injected duplicate gets its own copy so recycling stays single-owner
	buf := e.pool.get(len(msg.data))
	copy(buf, msg.data)
	msg.data = buf
	r.push(msg)
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
	r := e.ring(from, p.id)
	if r.n == 0 {
		p.block("recv", from)
		e.waiter[p.id] = from
		e.parked[p.id] = true
		e.yield <- p.id  // park: hand control to the scheduler
		<-e.resume[p.id] // woken: a message arrived, or the run aborted
		e.parked[p.id] = false
		e.waiter[p.id] = -1
		p.unblock()
		if p.m.aborted.Load() {
			p.abortNow("recv", from)
		}
	} else {
		p.m.progress.Add(1)
	}
	return e.take(p.id, r)
}

// take pops the head message and settles payload ownership: a real
// message's buffer is held for the processor until its next Recv; an
// injected duplicate's buffer goes straight back to the pool (the
// caller only reads its length, and no other processor can touch the
// pool before this one yields).
func (e *desEngine) take(pid int, r *msgRing) message {
	msg := r.pop()
	if msg.dup {
		e.pool.put(msg.data)
	} else if msg.data != nil {
		e.pool.put(e.held[pid])
		e.held[pid] = msg.data
	}
	return msg
}

// scratch reuses one grow-only buffer per processor: deliver copies
// payloads out immediately, so the node program is free to rebuild it
// for the next send.
func (e *desEngine) scratch(pid, n int) []float64 {
	if cap(e.scratchBufs[pid]) < n {
		e.scratchBufs[pid] = make([]float64, n)
	}
	return e.scratchBufs[pid][:n]
}
