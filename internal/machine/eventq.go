// The discrete-event engine's virtual-time event queue: a set of
// binary min-heaps ("shards") with a global pop that returns the
// minimum event under the total order (time, seq, pid). Sharding by
// processor id keeps each heap shallow at large P — pushes touch only
// the owning shard, and a pop scans the shard tops (a handful of
// comparisons) instead of sifting one P-sized heap.
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

// eventHeap is one shard: a binary min-heap ordered by event.less.
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

// popTop removes the shard's minimum (the shard must be non-empty).
func (h *eventHeap) popTop() event {
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
	return top
}

// eventQueue is the sharded queue. The zero value is unusable; call
// init first.
type eventQueue struct {
	shards []eventHeap
}

// initShards sizes the queue. nshards must be >= 1.
func (q *eventQueue) initShards(nshards int) {
	if nshards < 1 {
		nshards = 1
	}
	q.shards = make([]eventHeap, nshards)
}

// push files the event under its processor's shard.
func (q *eventQueue) push(e event) {
	q.shards[e.pid%len(q.shards)].push(e)
}

// pop removes and returns the globally minimum event under
// (time, seq, pid), or ok=false when the queue is empty.
func (q *eventQueue) pop() (event, bool) {
	best := -1
	var bestEv event
	for i := range q.shards {
		h := &q.shards[i]
		if len(h.ev) == 0 {
			continue
		}
		if best < 0 || h.ev[0].less(bestEv) {
			best, bestEv = i, h.ev[0]
		}
	}
	if best < 0 {
		return event{}, false
	}
	q.shards[best].popTop()
	return bestEv, true
}

// len returns the number of queued events.
func (q *eventQueue) len() int {
	n := 0
	for i := range q.shards {
		n += len(q.shards[i].ev)
	}
	return n
}

// desShardCount picks the shard count for a P-processor machine: one
// shard per 64 processors, clamped to [1, 16]. Small machines get one
// flat heap (no scan overhead); P=1024 gets 16 shallow heaps.
func desShardCount(p int) int {
	n := p / 64
	if n < 1 {
		n = 1
	}
	if n > 16 {
		n = 16
	}
	return n
}
