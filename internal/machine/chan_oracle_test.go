package machine

import (
	"sync"
	"sync/atomic"
	"time"
)

// The channel oracle: the machine's original engine, one goroutine per
// processor and P² buffered channels as links, with a wall-clock
// sampling watchdog for deadlock detection. It shares nothing with the
// discrete-event engine but the Proc methods above the engine seam, so
// agreement between the two (TestEngineDifferential) is evidence that
// the scheduler, rings and payload pool of des.go change nothing
// observable. It is exact but heavy: eager channel buffers cost
// O(P² × LinkDepth) memory and the runtime scheduler thrashes past a few
// dozen processors.
type chanEngine struct {
	m     *Machine
	links [][]chan message // links[from][to]

	// watchdog state: progress is bumped on every completed channel
	// operation; the blocked registrations are the machine's own
	progress  atomic.Uint64
	watchOnce sync.Once
	watchStop chan struct{}
	watchDone chan struct{}
}

// newChanMachine is New with the oracle substituted for the engine.
func newChanMachine(cfg Config) *Machine {
	m := New(cfg)
	e := &chanEngine{m: m, watchStop: make(chan struct{}), watchDone: make(chan struct{})}
	e.links = make([][]chan message, cfg.P)
	for i := range e.links {
		e.links[i] = make([]chan message, cfg.P)
		for j := range e.links[i] {
			// a full link is a failure, not back-pressure: see Proc.deliver
			e.links[i][j] = make(chan message, m.depth)
		}
	}
	m.eng = e
	return m
}

func (e *chanEngine) start(pid int, fn func(*Proc)) {
	m := e.m
	e.watchOnce.Do(func() { go e.watchdog() })
	m.wg.Add(1)
	m.mu.Lock()
	m.running++
	m.mu.Unlock()
	go func() {
		defer m.wg.Done()
		defer func() { m.recordProcExit(pid, recover()) }()
		fn(m.procs[pid])
	}()
}

func (e *chanEngine) wait() {
	e.m.wg.Wait()
	e.watchOnce.Do(func() { close(e.watchDone) }) // Go was never called
	close(e.watchStop)
	<-e.watchDone
}

// deliver copies the payload, as the discrete-event engine does at an
// originating send, so both sides of the seam honour one ownership
// contract: the sender's slice is its own again on return.
func (e *chanEngine) deliver(src, dst int, msg message) bool {
	msg.data = append([]float64(nil), msg.data...)
	select {
	case e.links[src][dst] <- msg:
		e.progress.Add(1)
		return true
	default:
		return false
	}
}

// receive takes the next message off the link, registering the
// processor as blocked (for the watchdog) while it waits and unwinding
// it if the run is aborted.
func (e *chanEngine) receive(p *Proc, from int) message {
	if p.m.aborted.Load() {
		p.abortNow("recv", from)
	}
	ch := e.links[from][p.id]
	select {
	case msg := <-ch:
		e.progress.Add(1)
		return msg
	default:
	}
	p.block("recv", from)
	select {
	case msg := <-ch:
		p.unblock()
		e.progress.Add(1)
		return msg
	case <-p.m.done:
		p.unblock()
		p.abortNow("recv", from)
		panic("unreachable")
	}
}

func (e *chanEngine) scratch(pid, n int) []float64 {
	return make([]float64, n)
}

// Watchdog cadence: with these settings an all-blocked machine is
// detected after ~4 idle samples (≈20–30ms of wall clock). A false
// positive would need a runnable goroutine (one with a deliverable
// message) to stay unscheduled for that whole window while every other
// goroutine is parked — the progress counter resets the stability
// count whenever any channel operation completes.
const (
	watchdogInterval = 5 * time.Millisecond
	watchdogStable   = 4
)

// watchdog samples the machine on a wall-clock ticker and declares
// deadlock when every live processor is blocked on a link and no
// channel operation has completed across several consecutive samples.
// It also enforces Config.Deadline, which the discrete-event engine
// does with a timer.
func (e *chanEngine) watchdog() {
	defer close(e.watchDone)
	m := e.m
	start := time.Now()
	tick := time.NewTicker(watchdogInterval)
	defer tick.Stop()
	var lastProgress uint64
	stable := 0
	for {
		select {
		case <-e.watchStop:
			return
		case <-m.done:
			return
		case <-tick.C:
		}
		elapsed := time.Since(start)
		if m.cfg.Deadline > 0 && elapsed >= m.cfg.Deadline {
			m.Abort(-1, m.deadlockReport(true, elapsed))
			return
		}
		m.mu.Lock()
		blocked := 0
		for _, b := range m.blocked {
			if b.active {
				blocked++
			}
		}
		allBlocked := m.running > 0 && blocked == m.running
		m.mu.Unlock()
		progress := e.progress.Load()
		if allBlocked && progress == lastProgress {
			stable++
		} else {
			stable = 0
		}
		lastProgress = progress
		if stable >= watchdogStable {
			m.Abort(-1, m.deadlockReport(false, elapsed))
			return
		}
	}
}
