package machine

import "fortd/internal/trace"

// Nonblocking communication. The machine has no rendezvous: a
// message's delivery time is fixed entirely by its sender
// (message.arrival), so posting a receive early cannot change when the
// data arrives — it changes what the receiver does in the meantime.
// IRecv therefore records intent only and WaitHandle performs the
// receive and all accounting: nothing observable happens between post
// and wait. A wait that stalls emits a KindWait trace event whose Dur
// is exactly the flight time the schedule failed to hide under
// computation; a wait that finds the data already delivered costs
// nothing.

// handleKind classifies what a Handle is waiting for.
type handleKind uint8

const (
	handleSend handleKind = iota
	handleRecv
	handleBcast
)

// Handle is one in-flight nonblocking operation, returned by ISend,
// IRecv and PostBcast and completed by WaitHandle. Handles belong to
// the processor that created them and are not safe for concurrent use.
// A caller that posts in a loop can own the storage instead: IRecvInto
// and PostBcastInto restart a Handle the caller keeps (once its
// previous operation has been waited for), reusing its forwarding list.
type Handle struct {
	p    *Proc
	kind handleKind
	from int  // sender pid (recv), parent pid (non-root bcast), -1 none
	done bool // completed: data holds the payload
	data []float64
	fwd  []int // bcast: children to forward to at wait time
}

// ISend starts a nonblocking send. Send never blocks on this machine
// (links are buffered; a full link fails the run), so ISend is Send
// plus an already-completed handle — it exists so schedules can treat
// both directions of a split-phase exchange uniformly.
func (p *Proc) ISend(to int, data []float64) *Handle {
	p.Send(to, data)
	return &Handle{p: p, kind: handleSend, from: -1, done: true}
}

// IRecv posts a nonblocking receive for the next message from
// processor from. It records intent only (see the package comment on
// rendezvous); WaitHandle performs the receive. Posting is still a
// cancellation point so an aborted run unwinds promptly.
func (p *Proc) IRecv(from int) *Handle {
	h := new(Handle)
	p.IRecvInto(h, from)
	return h
}

// IRecvInto is IRecv into a caller-owned Handle.
func (p *Proc) IRecvInto(h *Handle, from int) {
	if p.m.aborted.Load() {
		p.abortNow("post", from)
	}
	// self-receive is a local no-op, as in Recv
	*h = Handle{p: p, kind: handleRecv, from: from, done: from == p.id, fwd: h.fwd[:0]}
}

// WaitHandle completes a nonblocking operation, blocking until its
// message is delivered, and returns the payload (nil for sends and
// self-receives). The stall, if any, is charged to the waiter's Wait
// time and emitted as a KindWait event carrying the posted operation's
// Seq, so analysis links it to the originating send. Waiting twice on
// the same handle returns the same payload without re-receiving. The
// payload is machine-owned: valid until this processor's next receive.
func (p *Proc) WaitHandle(h *Handle) []float64 {
	if h == nil || h.done {
		if h == nil {
			return nil
		}
		return h.data
	}
	h.done = true
	h.data = p.recvAs(h.from, trace.KindWait)
	if h.kind == handleBcast {
		for i, c := range h.fwd {
			p.send(c, h.data, i > 0)
			p.bcast++
		}
	}
	return h.data
}

// bcastTree returns the binomial-tree parent of relative rank rel (-1
// for the root) and its children in ascending-round order, for an
// np-processor broadcast rooted at relative rank 0. It reproduces
// exactly the rounds Broadcast walks inline — rank rel receives in the
// round k with k <= rel < 2k and sends to rel+k in every later round —
// so split-phase and blocking broadcasts move the same messages over
// the same links. The children are appended to buf.
func bcastTree(rel, np int, buf []int) (parent int, children []int) {
	parent, children = -1, buf
	k := 1
	if rel > 0 {
		for k <= rel {
			k <<= 1
		}
		k >>= 1 // receive round: k <= rel < 2k
		parent = rel - k
		k <<= 1
	}
	for ; k < np; k <<= 1 {
		if rel+k < np {
			children = append(children, rel+k)
		}
	}
	return parent, children
}

// PostBcast starts a split-phase broadcast of data from root. All
// processors must call it and later complete it with WaitHandle (or
// WaitBcast). The root sends to its tree children immediately — that
// is the whole point of posting early — while every other processor
// records its parent and forwards to its own children when it waits.
// The message pattern is identical to the blocking Broadcast.
func (p *Proc) PostBcast(root int, data []float64) *Handle {
	h := new(Handle)
	p.PostBcastInto(h, root, data)
	return h
}

// PostBcastInto is PostBcast into a caller-owned Handle.
func (p *Proc) PostBcastInto(h *Handle, root int, data []float64) {
	np := p.m.cfg.P
	rel := (p.id - root + np) % np
	parent, children := bcastTree(rel, np, h.fwd[:0])
	for i, c := range children {
		children[i] = (root + c) % np
	}
	*h = Handle{p: p, kind: handleBcast, from: -1, fwd: children}
	if p.id == root {
		for i, c := range children {
			p.send(c, data, i > 0)
			p.bcast++
		}
		h.done = true
		h.data = data
		return
	}
	if p.m.aborted.Load() {
		p.abortNow("post", (root+parent)%np)
	}
	h.from = (root + parent) % np
}

// WaitBcast completes a split-phase broadcast and returns the full
// payload on every processor (the root's own copy on the root).
func (p *Proc) WaitBcast(h *Handle) []float64 { return p.WaitHandle(h) }
