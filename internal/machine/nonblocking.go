package machine

import (
	"math"

	"fortd/internal/trace"
)

// Nonblocking communication. The machine has no rendezvous: a
// message's delivery time is fixed entirely by its sender
// (message.arrival), so posting a receive early cannot change when the
// data arrives — it changes what the receiver does in the meantime.
// IRecvInto therefore records intent only and WaitHandle performs the
// receive and all accounting: nothing observable happens between post
// and wait. A wait that stalls emits a KindWait trace event whose Dur
// is exactly the flight time the schedule failed to hide under
// computation; a wait that finds the data already delivered costs
// nothing.

// handleKind classifies what a Handle is waiting for.
type handleKind uint8

const (
	handleRecv handleKind = iota
	handleBcast
)

// Handle is one in-flight nonblocking operation, started by IRecvInto
// or PostBcastInto and completed by WaitHandle. Handles belong to the
// processor that posts on them and are not safe for concurrent use; a
// caller that posts in a loop restarts the Handle it keeps (once its
// previous operation has been waited for), reusing its forwarding list.
type Handle struct {
	p    *Proc
	kind handleKind
	from int  // sender pid (recv), parent pid (non-root bcast), -1 none
	done bool // completed: data holds the payload
	data []float64
	fwd  []int // bcast: children to forward to at wait time
}

// IRecvInto posts a nonblocking receive, in a handle the caller owns,
// for the next message from processor from. It records intent only (see
// the package comment on rendezvous); WaitHandle performs the receive.
// Posting is still a cancellation point so an aborted run unwinds
// promptly.
func (p *Proc) IRecvInto(h *Handle, from int) {
	if p.m.aborted.Load() {
		p.abortNow("post", from)
	}
	// self-receive is a local no-op, as in Recv
	*h = Handle{p: p, kind: handleRecv, from: from, done: from == p.id, fwd: h.fwd[:0]}
}

// WaitHandle completes a nonblocking operation, blocking until its
// message is delivered, and returns the payload (nil for
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

// Group is the processors a broadcast reaches besides its root: the N
// processors First, First+1, .., counted modulo P; N >= P is all. Ring
// sends along ringLinks, not bcastTree.
type Group struct {
	First, N int
	Ring     bool
}

// All is the group of every processor.
var All = Group{N: math.MaxInt}

// Has reports whether pid is one of g's processors on np processors.
func (g Group) Has(pid, np int) bool {
	return g.N >= np || Mod(pid-g.First, np) < g.N
}

// Mod is a modulo n > 0 in 0..n-1: one division and a conditional add,
// where ((a%n)+n)%n takes two divisions.
func Mod(a, n int) int {
	r := a % n
	if r < 0 {
		r += n
	}
	return r
}

// tree ranks a broadcast's members, its root and group, in closed form
// by their distance (pid - root) mod P: the distances [0, low) and then
// [from, to). A group of all P ranks every processor by its distance.
type tree struct {
	root, np, low, from, to, size int
	ring                          bool
}

func newTree(root, np int, g Group) tree {
	n, s := min(max(g.N, 0), np), Mod(g.First-root, np)
	if s == 0 && n > 0 {
		s, n = 1, n-1 // the root heads the range
	}
	t := tree{root: root, np: np, low: 1, from: s, to: s + n, ring: g.Ring}
	if s+n > np { // the range wraps past the root
		t.low, t.to = s+n-np, np
	}
	t.size = t.low + t.to - t.from
	return t
}

func (t tree) rank(pid int) (int, bool) {
	d := Mod(pid-t.root, t.np)
	if d >= t.from && d < t.to {
		return d - t.from + t.low, true
	}
	return d, d < t.low
}

func (t tree) pid(rank int) int {
	if rank >= t.low {
		rank += t.from - t.low
	}
	return (t.root + rank) % t.np
}

// links is who sends to whom among the ranks: bcastTree or ringLinks.
// Broadcast and PostBcastInto both ask it, so the two move the same
// messages.
func (t tree) links(rank int, buf []int) (parent int, children []int) {
	if t.ring {
		return ringLinks(rank, t.size, buf)
	}
	return bcastTree(rank, t.size, buf)
}

// bcastTree returns the binomial-tree parent of rank rel (-1 for the
// root) and its children in ascending-round order, for an np-member
// broadcast rooted at rank 0: rank rel receives in the round k with
// k <= rel < 2k and sends to rel+k in every later round. The children
// are appended to buf.
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

// ringLinks is bcastTree's counterpart for LINPACK's modified ring: the
// root sends to ranks 1 and 2, rank 1 (the next root) forwards nothing,
// and every rank d >= 2 forwards to d+1.
func ringLinks(rel, np int, buf []int) (parent int, children []int) {
	switch {
	case rel == 0:
		return -1, append(buf, 1, 2)[:len(buf)+min(2, np-1)]
	case rel == 1:
		return 0, buf
	}
	if parent = rel - 1; rel == 2 {
		parent = 0
	}
	if rel+1 < np {
		return parent, append(buf, rel+1)
	}
	return parent, buf
}

// PostBcastInto starts a split-phase broadcast of data from root to the
// processors of g in a handle the caller owns. The root and g must call
// it and later complete it with WaitHandle; for anyone else the handle
// is done at once. The root sends to its tree children immediately —
// that is the whole point of posting early — while every other member
// records its parent and forwards to its own children when it waits.
// The message pattern is identical to the blocking Broadcast.
func (p *Proc) PostBcastInto(h *Handle, root int, g Group, data []float64) {
	t := newTree(root, p.m.cfg.P, g)
	rank, ok := t.rank(p.id)
	parent, children := t.links(rank, h.fwd[:0])
	for i, c := range children {
		children[i] = t.pid(c)
	}
	*h = Handle{p: p, kind: handleBcast, from: -1, done: !ok, fwd: children}
	switch {
	case ok && parent < 0:
		for i, c := range children {
			p.send(c, data, i > 0)
			p.bcast++
		}
		h.done, h.data = true, data
	case ok:
		if p.m.aborted.Load() {
			p.abortNow("post", t.pid(parent))
		}
		h.from = t.pid(parent)
	}
}
