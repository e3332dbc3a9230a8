package spmd

import (
	"fmt"
	"slices"

	"fortd/internal/ast"
	"fortd/internal/decomp"
	"fortd/internal/machine"
)

// Communication statements. A section is never materialised as a list
// of offsets: its bounds are evaluated into fixed scratch, clipped to
// the array and placed in the processor's window (box), reduced to its
// non-unit dimensions (section) and walked with strides straight
// between the window and the message buffer — a(1:128,k) is one
// stride-128 loop. What the window does not hold in one piece goes
// element by element and arrives in a site buffer (storage.go). Only a
// broadcast's root and group clip; the rest just meet its errors (rooted).

// bounds is an evaluated section: lo:hi per dimension.
type bounds struct {
	n      int
	lo, hi [maxRank]int
	empty  bool // some hi < lo, before clipping
}

// box is a section clipped to its array's declared bounds and, if the
// processor's window holds all of it (stored), placed there.
type box struct {
	n        int  // dimensions
	elems    int  // element count (0: the clipped section is empty)
	stored   bool // base and str address the array's Data
	base     int  // offset of the first element
	lo, hi   [maxRank]int
	ext, str [maxRank]int // extent and stride per dimension
}

// clip intersects b, a section of arr's rank, with arr's bounds into bx.
func clip(arr *Array, b *bounds, bx *box) {
	bx.n, bx.elems, bx.stored, bx.base = b.n, 1, true, 0
	for d := 0; d < b.n; d++ {
		bx.lo[d], bx.hi[d] = max(b.lo[d], arr.Lo[d]), min(b.hi[d], arr.Hi[d])
		bx.ext[d] = max(bx.hi[d]-bx.lo[d]+1, 0)
		bx.elems *= bx.ext[d]
	}
	stride := 1
	for d := b.n - 1; d >= 0 && bx.elems > 0; d-- {
		slot, step := bx.lo[d]-arr.Lo[d], 1
		if w := arr.win; w != nil && w.dim == d {
			var h held
			slot, step, h = w.run(bx.lo[d], 1, bx.ext[d])
			bx.stored = h == all
		}
		bx.str[d] = stride * step
		bx.base += slot * stride
		stride *= arr.ext(arr.win, d)
	}
}

// next steps idx to the box's next element in message (row-major) order.
func (bx *box) next(idx *[maxRank]int) {
	for d := bx.n - 1; d >= 0; d-- {
		if idx[d]++; idx[d] <= bx.hi[d] {
			return
		}
		idx[d] = bx.lo[d]
	}
}

// section is a box reduced to the dimensions that vary, outermost
// first, in the row-major order messages carry elements: element
// (i0,i1,…), 0 ≤ id < cnt[d], lies at base + Σ id·str[d].
type section struct {
	elems    int
	base     int
	n        int
	cnt, str [maxRank]int
}

func (bx *box) section() section {
	s := section{elems: bx.elems, base: bx.base}
	if bx.elems == 0 {
		return s
	}
	for d := 0; d < bx.n; d++ {
		if bx.ext[d] > 1 {
			s.cnt[s.n], s.str[s.n] = bx.ext[d], bx.str[d]
			s.n++
		}
	}
	return s
}

// walk moves elems elements between the message buffer buf (contiguous)
// and the array storage data (strided), out of data or (store) into it,
// in order: the innermost varying dimension
// is one strided run (a copy when its stride is 1), the outer ones an
// odometer.
func (s *section) walk(buf, data []float64, store bool) {
	if s.elems == 0 {
		return
	}
	last := s.n - 1
	run, stride := 1, 1
	if last >= 0 {
		run, stride = s.cnt[last], s.str[last]
	}
	var idx [maxRank]int
	off := s.base
	for k := 0; ; k += run {
		b, a := buf[k:k+run], data[off:off+(run-1)*stride+1]
		switch {
		case stride == 1 && store:
			copy(a, b)
		case stride == 1:
			copy(b, a)
		case store:
			for i, v := range b {
				a[i*stride] = v
			}
		default:
			for i := range b {
				b[i] = a[i*stride]
			}
		}
		d := last - 1
		for ; d >= 0; d-- {
			idx[d]++
			off += s.str[d]
			if idx[d] < s.cnt[d] {
				break
			}
			off -= idx[d] * s.str[d]
			idx[d] = 0
		}
		if d < 0 {
			return
		}
	}
}

// secDim is one lowered section dimension.
type secDim struct{ lo, hi intOperand }

// commSite is one lowered communication statement; its methods are the
// statement kinds' executors.
type commSite struct {
	unit  string
	line  int
	what  string // the statement's name in error messages
	op    string // trace attribution: the operation events are labelled with
	array string
	slot  int
	sec   []secDim
	peer  intOperand // destination, source or root
	tag   int        // tag index (Code.tags)
	to    *toClause  // a broadcast's receivers (nil: every processor)
	kind  ast.MsgOp  // the message statement it is (0: a remap)
	plain bool       // no section bound can fail: each is a constant or a local ± a constant
}

// toClause is a lowered "to" clause: lo..hi in dimension dim of slot's
// array, reached along a ring or the tree.
type toClause struct {
	slot, dim int
	lo, hi    intOperand
	ring      bool
}

// message lowers a message statement onto its site and the executor of
// its Op.
func (lw *lowerer) message(m *ast.Message) stmtFn {
	k := m.Op.Kind()
	c := &commSite{unit: lw.unit.Name, line: m.Pos().Line, what: k.Word, op: k.Label, array: m.Array, slot: lw.slot(m.Array), kind: m.Op, plain: len(m.Sec) <= maxRank}
	for _, s := range m.Sec {
		lo, _ := lw.intExpr(s.Lo)
		hi, _ := lw.intExpr(s.Hi)
		c.sec = append(c.sec, secDim{lo, hi})
		c.plain = c.plain && lo.kind < intFn && hi.kind < intFn
	}
	if m.Peer != nil {
		c.peer, _ = lw.intExpr(m.Peer)
	}
	if r := m.To; r != nil {
		lo, _ := lw.intExpr(r.Lo)
		hi, _ := lw.intExpr(r.Hi)
		c.to = &toClause{slot: lw.slot(r.Array), dim: r.Dim, lo: lo, hi: hi, ring: r.Ring}
	}
	if k.Tag {
		c.tag = index(&lw.pp.tags, int(m.Tag))
	}
	switch m.Op {
	case ast.MsgSend:
		return c.send
	case ast.MsgRecv:
		return c.recv
	case ast.MsgBcast:
		return c.broadcast
	case ast.MsgAllGather:
		return c.allGather
	case ast.MsgPostRecv:
		return c.postRecv
	case ast.MsgPostBcast:
		return c.postBcast
	}
	return c.wait // waitrecv, waitbcast
}

// begin attributes the communication the statement is about to generate
// to its procedure and source line (trace events and the deadlock
// report both read it) and looks the array up.
func (c *commSite) begin(fr *frame) (*Array, error) {
	fr.nd.proc.SetContext(c.unit, c.line, c.op)
	arr := fr.bind[c.slot].arr
	if arr == nil {
		return nil, fmt.Errorf("%s: unknown array %s", c.what, c.array)
	}
	return arr, nil
}

// bounds evaluates the section's bounds (all of them, even once one
// turns out empty).
func (c *commSite) bounds(fr *frame, b *bounds) error {
	if len(c.sec) > maxRank {
		return fmt.Errorf("%s %s: section has %d dimensions (limit %d)", c.what, c.array, len(c.sec), maxRank)
	}
	b.n, b.empty = len(c.sec), false
	for d := range c.sec {
		b.lo[d], b.hi[d] = c.sec[d].lo.eval(fr), c.sec[d].hi.eval(fr)
		if b.hi[d] < b.lo[d] {
			b.empty = true
		}
	}
	return fr.nd.takeErr()
}

// open starts a statement that moves a section of an array: the array,
// the section's bounds in b, checked against its rank, and the partner
// processor (destination, source or root, if any). ok is false when there
// is nothing to do.
func (c *commSite) open(fr *frame, b *bounds) (arr *Array, peer int, ok bool, err error) {
	if arr, err = c.begin(fr); err != nil {
		return
	}
	if err = c.bounds(fr, b); err != nil || b.empty {
		return
	}
	peer, err = c.peerOf(fr, arr)
	return arr, peer, err == nil, err
}

// peerOf checks the section's rank against arr's and evaluates the
// partner processor.
func (c *commSite) peerOf(fr *frame, arr *Array) (int, error) {
	if len(c.sec) != len(arr.Lo) {
		return 0, fmt.Errorf("%s %s: section has %d dimensions, the array %d", c.what, c.array, len(c.sec), len(arr.Lo))
	}
	return c.peer.eval(fr), fr.nd.takeErr()
}

// partner is open for a point-to-point statement, clipped into bx: nothing
// to do when its partner is no other processor or no element is left.
func (c *commSite) partner(fr *frame, bx *box) (arr *Array, peer int, ok bool, err error) {
	var b bounds
	if arr, peer, ok, err = c.open(fr, &b); !ok || peer < 0 || peer >= fr.nd.pl.nproc || peer == fr.nd.p {
		return arr, peer, false, err
	}
	clip(arr, &b, bx)
	return arr, peer, bx.elems > 0, nil
}

// rooted is open for a broadcast, whose root must be a processor, and
// the group it reaches besides: all, or the owners of its "to" section by
// the array's run-time distribution, along the clause's shape. Only the
// root and the group clip the section into bx; anyone else skips it (ok
// false), once it has met every error a member would. (A section that
// clips to nothing still runs the zero-word tree.) Where no bound can
// fail (plain), one outside evaluates none unless it meets an error,
// which stands only if the section is not empty.
func (c *commSite) rooted(fr *frame, bx *box) (arr *Array, root int, g machine.Group, ok bool, err error) {
	var b bounds
	if arr, err = c.begin(fr); err != nil {
		return
	}
	if !c.plain {
		if err = c.bounds(fr, &b); err != nil || b.empty {
			return
		}
	}
	if root, g, ok, err = c.group(fr, arr); c.plain && (ok || err != nil) {
		if c.bounds(fr, &b); b.empty {
			return arr, root, g, false, nil
		}
	}
	if ok {
		clip(arr, &b, bx)
	}
	return
}

// group is rooted's rank, root and receivers, ok if this processor is one.
// Every processor evaluates the root and the clause's bounds, so meets
// their errors; one that stores none of the clause's array is in no
// owner set (its share is empty) and, unless it is the root, leaves
// before the receivers are worked out.
func (c *commSite) group(fr *frame, arr *Array) (root int, g machine.Group, ok bool, err error) {
	nd := fr.nd
	if root, err = c.peerOf(fr, arr); err == nil && (root < 0 || root >= nd.pl.nproc) {
		err = fmt.Errorf("%s %s: bad root %d", c.what, c.array, root)
	}
	if g = machine.All; err == nil && c.to != nil {
		t, lo, hi := fr.bind[c.to.slot].arr, c.to.lo.eval(fr), c.to.hi.eval(fr)
		if err = nd.takeErr(); err == nil && t == nil {
			err = fmt.Errorf("%s %s: unknown array in to clause", c.what, c.array)
		}
		if d := c.to.dim; err == nil && t.Dist != nil && t.Dist.DistDim() == d {
			if t.win != nil && t.win.n == 0 && nd.p != root {
				return root, g, false, nil // holds none of t: in no owner set
			}
			g = receivers(t.Dist, max(lo, t.Lo[d]), min(hi, t.Hi[d]))
		}
		g.Ring = c.to.ring
	}
	return root, g, err == nil && (c.to == nil || nd.p == root || g.Has(nd.p, nd.pl.nproc)), err
}

func (c *commSite) send(fr *frame) error {
	var bx box
	arr, dest, ok, err := c.partner(fr, &bx)
	if !ok {
		return err
	}
	// stage the payload in the machine's scratch buffer, one reused
	// buffer per processor, so generated sends allocate nothing
	data := fr.nd.proc.Scratch(bx.elems)
	arr.gather(&bx, data)
	fr.nd.proc.Send(dest, data)
	return nil
}

func (c *commSite) recv(fr *frame) error {
	var bx box
	arr, src, ok, err := c.partner(fr, &bx)
	if !ok {
		return err
	}
	data := fr.nd.proc.Recv(src)
	if len(data) != bx.elems {
		return fmt.Errorf("recv %s: message size %d != section size %d (proc %d from %d)",
			c.array, len(data), bx.elems, fr.nd.p, src)
	}
	arr.deliver(c, &bx, data)
	return nil
}

func (c *commSite) broadcast(fr *frame) error {
	nd := fr.nd
	var bx box
	arr, root, g, ok, err := c.rooted(fr, &bx)
	if !ok {
		return err
	}
	var data []float64
	if nd.p == root {
		data = nd.proc.Scratch(bx.elems)
		arr.gather(&bx, data)
	}
	data = nd.proc.Broadcast(root, g, data)
	if nd.p != root {
		if len(data) != bx.elems {
			return fmt.Errorf("broadcast %s: size mismatch %d != %d", c.array, len(data), bx.elems)
		}
		arr.deliver(c, &bx, data)
	}
	return nil
}

// postedOp is one in-flight split-phase operation: the machine handle
// plus where the payload lands when the wait completes. The array and
// the section's bounds are captured at post time, so the wait delivers
// exactly the section the post named, as the post's site. Ops are
// pooled per node.
type postedOp struct {
	h      machine.Handle
	site   *commSite
	arr    *Array
	sec    bounds
	isRoot bool // bcast: this processor supplied the data; nothing to store
}

// post files a pooled op under the statement's tag. A tag still in
// flight is an error: the op filed under it would never be waited for.
func (c *commSite) post(fr *frame, arr *Array, bx *box) (*postedOp, error) {
	nd := fr.nd
	tag := fr.pp.tag[c.tag]
	if po := nd.posted[tag]; po != nil {
		return nil, fmt.Errorf("%s %s tag %d (%s line %d): the tag is in flight since the line %d %s",
			c.what, c.array, fr.pp.tags[c.tag], c.unit, c.line, po.site.line, po.site.what)
	}
	var po *postedOp
	if n := len(nd.freeOps); n > 0 {
		po = nd.freeOps[n-1]
		nd.freeOps = nd.freeOps[:n-1]
	} else {
		po = new(postedOp)
	}
	po.site, po.arr, po.isRoot = c, arr, false
	po.sec = bounds{n: bx.n, lo: bx.lo, hi: bx.hi}
	nd.posted[tag] = po
	return po, nil
}

// postRecv posts the receive half of a split halo exchange. Like recv
// it is a no-op for out-of-range or self sources and empty sections —
// in those cases nothing is filed and the matching waitRecv is a no-op
// too, which is what makes the schedule pass's unguarded waits safe
// under the post's original guard.
func (c *commSite) postRecv(fr *frame) error {
	var bx box
	arr, src, ok, err := c.partner(fr, &bx)
	if !ok {
		return err
	}
	po, err := c.post(fr, arr, &bx)
	if err == nil {
		fr.nd.proc.IRecvInto(&po.h, src)
	}
	return err
}

// postBcast posts the send half of a split-phase broadcast: the root's
// tree sends happen now, every other processor records what to wait
// for.
func (c *commSite) postBcast(fr *frame) error {
	nd := fr.nd
	var bx box
	arr, root, g, ok, err := c.rooted(fr, &bx)
	if !ok {
		return err
	}
	po, err := c.post(fr, arr, &bx)
	if err != nil {
		return err
	}
	var data []float64
	if po.isRoot = nd.p == root; po.isRoot {
		data = nd.proc.Scratch(bx.elems)
		arr.gather(&bx, data)
	}
	nd.proc.PostBcastInto(&po.h, root, g, data)
	return nil
}

// wait completes the postRecv or postBcast with the same tag, if one is
// in flight (none: the post's guard was false): the message is
// delivered as the section captured at post time, unless this processor
// supplied it, and the op goes back to the pool. A post of another
// kind or array under the tag is an error.
func (c *commSite) wait(fr *frame) error {
	nd := fr.nd
	nd.proc.SetContext(c.unit, c.line, c.op)
	tag := fr.pp.tag[c.tag]
	po := nd.posted[tag]
	if po == nil {
		return nil
	}
	if po.site.kind.Kind().Wait != c.kind || po.site.array != c.array {
		return fmt.Errorf("%s %s tag %d (%s line %d): the tag's post is the line %d %s %s",
			c.what, c.array, fr.pp.tags[c.tag], c.unit, c.line, po.site.line, po.site.what, po.site.array)
	}
	nd.posted[tag] = nil
	data := nd.proc.WaitHandle(&po.h)
	if !po.isRoot { // the root supplied the data; its copy is current
		var bx box
		switch clip(po.arr, &po.sec, &bx); {
		case len(data) == bx.elems:
			po.arr.deliver(po.site, &bx, data)
		case c.kind == ast.MsgWaitRecv:
			return fmt.Errorf("waitrecv %s: message size %d != section size %d (proc %d)", c.array, len(data), bx.elems, nd.p)
		default:
			return fmt.Errorf("waitbcast %s: size mismatch %d != %d", c.array, len(data), bx.elems)
		}
	}
	po.arr = nil
	nd.freeOps = append(nd.freeOps, po)
	return nil
}

// allGather makes a distributed section known to every processor. It is
// lowered as a binomial gather of owner blocks to processor 0 followed
// by a tree broadcast of the concatenation: 2(P-1) messages on
// 2·ceil(log2 P) critical-path steps.
func (c *commSite) allGather(fr *frame) error {
	nd := fr.nd
	np, p := nd.pl.nproc, nd.p
	var b bounds
	arr, _, ok, err := c.open(fr, &b)
	if !ok || np == 1 || arr.Dist == nil || arr.Dist.IsReplicated() {
		return err // nothing to gather, or the data is everywhere already
	}
	var bx box
	if clip(arr, &b, &bx); bx.elems == 0 {
		return nil
	}
	dim := arr.Dist.DistDim()
	// owner q's part of the section, in message order; every processor
	// computes the same part sizes, so the concatenation's layout
	// (ascending owner) needs no headers and both ends of every link
	// agree on whether a block range is empty
	part := func(q int) window { return newWindow(arr.Dist, q, bx.lo[dim], bx.hi[dim]) }
	start, slab := nd.counts(np+1), bx.elems/bx.ext[dim]
	for q := range np {
		w := part(q)
		start[q+1] = start[q] + slab*w.n
	}
	rangeWords := func(lo, hi int) int { return start[min(hi, np)] - start[lo] }
	total := rangeWords(0, np)
	if total == 0 {
		return nil
	}
	// gather up the tree: before round k, processor p (a multiple of 2k)
	// holds the blocks of owners [p, min(p+k, nproc)); a processor with
	// bit k set sends its range to p-k and leaves
	buf := nd.proc.Scratch(total)
	n := 0
	mine := part(p)
	arr.each(&bx, &mine, func(idx [maxRank]int) {
		buf[n] = arr.load(&idx)
		n++
	})
	for k := 1; k < np; k <<= 1 {
		if p&k != 0 {
			if n > 0 {
				nd.proc.Send(p-k, buf[:n])
			}
			break
		}
		if p+k < np {
			want := rangeWords(p+k, p+2*k)
			if want == 0 {
				continue
			}
			data := nd.proc.Recv(p + k)
			if len(data) != want {
				return fmt.Errorf("allgather %s: size mismatch from %d", c.array, p+k)
			}
			n += copy(buf[n:], data)
		}
	}
	// processor 0 now holds the full concatenation; the tree broadcast
	// distributes it and every processor puts it in message order, in the
	// site's buffer, to deliver it
	full := nd.proc.Broadcast(0, machine.All, buf[:n])
	if len(full) != total {
		return fmt.Errorf("allgather %s: gathered %d words, want %d", c.array, len(full), total)
	}
	stage := arr.buffer(c, &bx)
	n = 0
	for q := range np {
		w := part(q)
		arr.each(&bx, &w, func(idx [maxRank]int) {
			off, _, _ := stage.run(&idx, &[maxRank]int{}, 1, bx.n)
			stage.data[off], n = full[n], n+1
		})
	}
	arr.deliver(c, &bx, stage.data)
	return nil
}

// UnknownReduceOpError reports a GlobalReduce whose operation the
// executor does not implement. Earlier versions silently treated any
// unrecognized op as a sum; an unknown op is a compiler bug and must
// fail loudly.
type UnknownReduceOpError struct {
	Var string // reduction variable
	Op  string // the unrecognized operation
}

func (e *UnknownReduceOpError) Error() string {
	return fmt.Sprintf("global reduce of %s: unknown operation %q (want \"+\", \"MAX\" or \"MIN\")", e.Var, e.Op)
}

// reduceCombine maps a GlobalReduce op to its combining function.
func reduceCombine(op string) (func(a, b float64) float64, bool) {
	switch op {
	case "+":
		return func(a, b float64) float64 { return a + b }, true
	case "MAX":
		return func(a, b float64) float64 {
			if b > a {
				return b
			}
			return a
		}, true
	case "MIN":
		return func(a, b float64) float64 {
			if b < a {
				return b
			}
			return a
		}, true
	}
	return nil, false
}

// globalReduce combines every processor's private copy of a scalar and
// leaves the result everywhere with one machine.AllReduce: recursive
// doubling, ceil(log2 P) flights, at most one receive per processor per
// round, and on every processor the bits a combining tree into
// processor 0 would produce.
func (lw *lowerer) globalReduce(st *ast.GlobalReduce) stmtFn {
	unit, line, slot := lw.unit.Name, st.Pos().Line, lw.slot(st.Var)
	combine, ok := reduceCombine(st.Op)
	return func(fr *frame) error {
		nd := fr.nd
		nd.proc.SetContext(unit, line, "reduce")
		if !ok {
			return &UnknownReduceOpError{Var: st.Var, Op: st.Op}
		}
		sc := fr.scalar(slot)
		if nd.pl.nproc > 1 {
			*sc = nd.proc.AllReduce(*sc, combine)
		}
		return nil
	}
}

// remap moves an array between two distributions. What the old window
// holds of the new one moves locally, the rest by exchange; an in-place
// remap (the values are dead) moves nothing and leaves the new window
// NaN. The storage the old layout leaves behind serves the next remap.
func (lw *lowerer) remap(st *ast.Remap) stmtFn {
	c := &commSite{unit: lw.unit.Name, line: st.Pos().Line, what: "remap", op: "remap", array: st.Array, slot: lw.slot(st.Array)}
	to := decomp.NewDecomp(st.To...)
	return func(fr *frame) error {
		nd := fr.nd
		arr, err := c.begin(fr)
		if err != nil {
			return err
		}
		sizes := make([]int, len(arr.Lo))
		for d := range sizes {
			sizes[d] = arr.Hi[d] - arr.Lo[d] + 1
		}
		newDist, err := decomp.NewDist(to, sizes, nd.pl.nproc)
		if err != nil {
			return fmt.Errorf("remap %s: %v", c.array, err)
		}
		old, next := arr.Dist, *arr
		next.Dist = newDist
		next.win = nd.window(&next)
		if arr.win != nil || next.win != nil {
			next.Data, next.spare = poisoned(arr.spare, next.size(next.win)), arr.Data
			for _, b := range next.bufs {
				b.data = b.data[:0]
			}
			if !st.InPlace {
				k := 0
				arr.each(nil, arr.win, func(idx [maxRank]int) {
					if off := next.local(&idx); off >= 0 {
						next.Data[off] = arr.Data[k]
					}
					k++
				})
			}
		}
		if !st.InPlace && old != nil && !old.IsReplicated() {
			err = c.exchange(nd, arr, &next)
		}
		*arr = next
		return err
	}
}

// exchange is a physical remap's communication, the run-time library's
// all-to-all personalized exchange: one message to each partner, the
// elements this processor owned under arr's distribution that the partner
// owns under next's (none: no message; a replicated target: all of them,
// to everyone), and the partners' messages stored. Both sides walk their
// own share in message order, so the k-th element packed for q is the k-th
// that q expects. The overlap region is left, as on a real machine, to the
// compiler's messages, and the remap costs what its messages cost.
func (c *commSite) exchange(nd *node, arr, next *Array) error {
	np, p := nd.pl.nproc, nd.p
	odim, ndim := arr.Dist.DistDim(), next.Dist.DistDim()
	own := newWindow(arr.Dist, p, arr.Lo[odim], arr.Hi[odim])
	var mine *window // nil: a replicated target, everything
	if ndim >= 0 {
		w := newWindow(next.Dist, p, arr.Lo[ndim], arr.Hi[ndim])
		if mine = &w; !arr.moves(&own, mine) {
			return nil
		}
	}
	data := nd.proc.Scratch(arr.size(&own))
	start := nd.deal(arr, &own, func(idx [maxRank]int) int {
		if mine == nil {
			return p // one group, for every partner
		}
		return mine.owner(idx[ndim])
	}, func(k int, idx [maxRank]int) { data[k] = arr.Data[arr.local(&idx)] })
	for q := range np {
		part := data[start[q]:start[q+1]]
		if mine == nil {
			part = data
		}
		if q != p && len(part) > 0 {
			nd.proc.Send(q, part)
		}
	}
	n := next.size(mine)
	nd.place = slices.Grow(nd.place[:0], n)[:n]
	start = nd.deal(next, mine, func(idx [maxRank]int) int { return own.owner(idx[odim]) },
		func(k int, idx [maxRank]int) { nd.place[k] = next.local(&idx) })
	for q := range np {
		at := nd.place[start[q]:start[q+1]]
		if q == p || len(at) == 0 {
			continue
		}
		data := nd.proc.Recv(q)
		if len(data) != len(at) {
			return fmt.Errorf("remap %s: message size %d != part size %d (proc %d from %d)",
				c.array, len(data), len(at), p, q)
		}
		for k, v := range data {
			next.Data[at[k]] = v
		}
	}
	nd.proc.CountRemap(0, 0) // marks the remap in trace and Stats
	return nil
}

// deal arranges the elements of a with a distributed subscript of w's
// (nil: all), walked in message order, in one group per processor, the one
// to names: put gets each element's position, and group q is positions
// start[q] to start[q+1] (scratch, good until the next deal or allgather).
func (nd *node) deal(a *Array, w *window, to func(idx [maxRank]int) int, put func(k int, idx [maxRank]int)) (start []int) {
	// c[q+2] counts group q; summed, c[q+1] is where q starts, then where
	// its next element goes
	c := nd.counts(nd.pl.nproc + 2)
	a.each(nil, w, func(idx [maxRank]int) { c[to(idx)+2]++ })
	for q := 3; q < len(c); q++ {
		c[q] += c[q-1]
	}
	a.each(nil, w, func(idx [maxRank]int) {
		q := to(idx)
		put(c[q+1], idx)
		c[q+1]++
	})
	return c
}

// counts returns the node's integer scratch, n zeros.
func (nd *node) counts(n int) []int {
	nd.partStart = slices.Grow(nd.partStart[:0], n)[:n]
	clear(nd.partStart)
	return nd.partStart
}
