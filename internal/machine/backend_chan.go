// The goroutine reference engine (BackendGoroutine): one goroutine per
// processor, P² buffered channels as links, the wall-clock sampling
// watchdog from abort.go for deadlock detection. This is the original
// machine implementation, kept verbatim behind the engine interface so
// the differential test suite can prove the discrete-event core
// produces identical Stats and trace exports. It is exact but heavy:
// eager channel buffers cost O(P² × LinkDepth) memory and the runtime
// scheduler thrashes past a few dozen processors.
package machine

// chanEngine holds the channel link matrix; everything else (abort,
// watchdog, progress accounting) lives on the Machine and is shared
// with the DES engine's bookkeeping.
type chanEngine struct {
	m     *Machine
	links [][]chan message // links[from][to]
}

func newChanEngine(m *Machine, depth int) *chanEngine {
	e := &chanEngine{m: m}
	e.links = make([][]chan message, m.cfg.P)
	for i := range e.links {
		e.links[i] = make([]chan message, m.cfg.P)
		for j := range e.links[i] {
			// a full link is a failure, not back-pressure: see Proc.deliver
			e.links[i][j] = make(chan message, depth)
		}
	}
	return e
}

func (e *chanEngine) start(pid int, fn func(*Proc)) {
	m := e.m
	m.startWatchdog()
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
	m := e.m
	m.wg.Wait()
	m.startWatchdog() // ensure watchDone closes even if Go was never called
	m.stopOnce.Do(func() { close(m.watchStop) })
	<-m.watchDone
}

func (e *chanEngine) deliver(src, dst int, msg message) bool {
	select {
	case e.links[src][dst] <- msg:
		return true
	default:
		return false
	}
}

// receive takes the next message off the link, registering the
// processor as blocked (for the deadlock watchdog) while it waits and
// unwinding it if the run is aborted.
func (e *chanEngine) receive(p *Proc, from int) message {
	if p.m.aborted.Load() {
		p.abortNow("recv", from)
	}
	ch := e.links[from][p.id]
	select {
	case msg := <-ch:
		p.m.progress.Add(1)
		return msg
	default:
	}
	p.block("recv", from)
	select {
	case msg := <-ch:
		p.unblock()
		return msg
	case <-p.m.done:
		p.unblock()
		p.abortNow("recv", from)
		panic("unreachable")
	}
}

// scratch allocates fresh every call: channel delivery passes the
// payload slice by reference, so a reused buffer would be overwritten
// under the receiver. The DES engine, which copies a payload out of
// it at the send, is where Scratch actually pays off.
func (e *chanEngine) scratch(pid, n int) []float64 {
	return make([]float64, n)
}
