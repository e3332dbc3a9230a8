// The discrete-event engine's virtual-time event queue: one binary
// min-heap whose pop returns the minimum event under the total order
// (time, seq, pid). A processor has at most one pending event — its
// start event or the wakeup of its one parked receive — so the engine
// sizes the heap to P once and it never grows.
//
// The seq field is a machine-wide monotone counter assigned at push
// time, so events at equal virtual time drain in creation order —
// processor start events fire in Go-call order, and simultaneous
// message arrivals resume receivers deterministically. The pid field is
// a final tie-breaker that makes the order total even for hand-built
// event sets (the property test exercises it).
package machine

// event schedules one processor to resume at a virtual time.
type event struct {
	time float64 // virtual time the processor becomes runnable
	seq  uint64  // machine-wide creation order (tie-break)
	pid  int     // processor to resume
}

// less is the total drain order: (time, seq, pid) lexicographic.
func (a event) less(b event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	return a.pid < b.pid
}

// eventHeap is the queue: a binary min-heap ordered by event.less.
type eventHeap struct {
	ev []event
}

func (h *eventHeap) push(e event) {
	h.ev = append(h.ev, e)
	i := len(h.ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.ev[i].less(h.ev[parent]) {
			break
		}
		h.ev[i], h.ev[parent] = h.ev[parent], h.ev[i]
		i = parent
	}
}

// pop removes and returns the minimum event under (time, seq, pid), or
// ok=false when the queue is empty.
func (h *eventHeap) pop() (event, bool) {
	if len(h.ev) == 0 {
		return event{}, false
	}
	top := h.ev[0]
	last := len(h.ev) - 1
	h.ev[0] = h.ev[last]
	h.ev = h.ev[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < last && h.ev[l].less(h.ev[min]) {
			min = l
		}
		if r < last && h.ev[r].less(h.ev[min]) {
			min = r
		}
		if min == i {
			break
		}
		h.ev[i], h.ev[min] = h.ev[min], h.ev[i]
		i = min
	}
	return top, true
}
