package spmd

import (
	"fmt"

	"fortd/internal/ast"
	"fortd/internal/decomp"
	"fortd/internal/machine"
)

// Communication statements. A section is never materialised as a list
// of offsets: its bounds are evaluated into fixed scratch, clipped to
// the array (box), reduced to its non-unit dimensions (section) and
// walked with strides straight between the array and the message
// buffer — a(1:128,k) is one stride-128 loop.

// bounds is an evaluated section: lo:hi per dimension.
type bounds struct {
	n      int
	lo, hi [maxRank]int
	empty  bool // some hi < lo, before clipping
}

// box is a section clipped to its array's declared bounds.
type box struct {
	n        int // dimensions
	elems    int // element count (0: the clipped section is empty)
	base     int // offset of the first element
	lo, hi   [maxRank]int
	ext, str [maxRank]int // extent and stride per dimension
}

// clip intersects b with arr's bounds.
func clip(arr *Array, b *bounds) (box, error) {
	bx := box{n: b.n, elems: 1}
	if b.n != len(arr.Lo) {
		return bx, fmt.Errorf("section has %d dimensions, the array %d", b.n, len(arr.Lo))
	}
	stride := 1
	for d := b.n - 1; d >= 0; d-- {
		lo, hi := max(b.lo[d], arr.Lo[d]), min(b.hi[d], arr.Hi[d])
		if hi < lo {
			bx.elems = 0
			return bx, nil
		}
		bx.lo[d], bx.hi[d], bx.ext[d], bx.str[d] = lo, hi, hi-lo+1, stride
		bx.elems *= hi - lo + 1
		bx.base += (lo - arr.Lo[d]) * stride
		stride *= arr.Hi[d] - arr.Lo[d] + 1
	}
	return bx, nil
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

// pack copies the section's elements of data into dst, in order.
func (s *section) pack(dst, data []float64) { s.walk(dst, data, false) }

// unpack stores src, in order, into the section's elements of data.
func (s *section) unpack(data, src []float64) { s.walk(src, data, true) }

// walk moves elems elements between the message buffer buf (contiguous)
// and the array storage data (strided): the innermost varying dimension
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
	tag   int        // dense split-phase tag index
}

func (lw *lowerer) comm(st ast.Stmt, what, op, array string, sec []ast.SecDim, peer ast.Expr, tag int) *commSite {
	c := &commSite{unit: lw.unit.Name, line: st.Pos().Line, what: what, op: op, array: array, slot: lw.slot(array)}
	for _, s := range sec {
		lo, _ := lw.intExpr(s.Lo)
		hi, _ := lw.intExpr(s.Hi)
		c.sec = append(c.sec, secDim{lo, hi})
	}
	if peer != nil {
		c.peer, _ = lw.intExpr(peer)
	}
	switch st.(type) {
	case *ast.PostRecv, *ast.WaitRecv, *ast.PostBcast, *ast.WaitBcast:
		c.tag = lw.lp.tag(tag)
	}
	return c
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

// peerOf evaluates the statement's partner processor.
func (c *commSite) peerOf(fr *frame) (int, error) {
	q := c.peer.eval(fr)
	return q, fr.nd.takeErr()
}

// clipped evaluates the statement's section against arr. ok is false
// when the section is empty before clipping, which every statement
// treats as "nothing to do".
func (c *commSite) clipped(fr *frame, arr *Array) (bx box, ok bool, err error) {
	var b bounds
	if err := c.bounds(fr, &b); err != nil || b.empty {
		return bx, false, err
	}
	bx, err = clip(arr, &b)
	if err != nil {
		return bx, false, fmt.Errorf("%s %s: %v", c.what, c.array, err)
	}
	return bx, true, nil
}

func (c *commSite) send(fr *frame) error {
	nd := fr.nd
	arr, err := c.begin(fr)
	if err != nil {
		return err
	}
	bx, ok, err := c.clipped(fr, arr)
	if !ok {
		return err
	}
	dest, err := c.peerOf(fr)
	if err != nil {
		return err
	}
	if dest < 0 || dest >= nd.pl.nproc || dest == nd.p || bx.elems == 0 {
		return nil
	}
	// stage the payload in the machine's scratch buffer, one reused
	// buffer per processor, so generated sends allocate nothing
	sec := bx.section()
	data := nd.proc.Scratch(sec.elems)
	sec.pack(data, arr.Data)
	nd.proc.Send(dest, data)
	return nil
}

func (c *commSite) recv(fr *frame) error {
	nd := fr.nd
	arr, err := c.begin(fr)
	if err != nil {
		return err
	}
	bx, ok, err := c.clipped(fr, arr)
	if !ok {
		return err
	}
	src, err := c.peerOf(fr)
	if err != nil {
		return err
	}
	if src < 0 || src >= nd.pl.nproc || src == nd.p || bx.elems == 0 {
		return nil
	}
	data := nd.proc.Recv(src)
	if len(data) != bx.elems {
		return fmt.Errorf("recv %s: message size %d != section size %d (proc %d from %d)",
			c.array, len(data), bx.elems, nd.p, src)
	}
	sec := bx.section()
	sec.unpack(arr.Data, data)
	return nil
}

// root evaluates and range-checks a broadcast's root.
func (c *commSite) root(fr *frame) (int, error) {
	root, err := c.peerOf(fr)
	if err == nil && (root < 0 || root >= fr.nd.pl.nproc) {
		err = fmt.Errorf("%s %s: bad root %d", c.what, c.array, root)
	}
	return root, err
}

func (c *commSite) broadcast(fr *frame) error {
	nd := fr.nd
	arr, err := c.begin(fr)
	if err != nil {
		return err
	}
	bx, ok, err := c.clipped(fr, arr)
	if !ok {
		return err
	}
	root, err := c.root(fr)
	if err != nil {
		return err
	}
	// a section that clips to nothing still runs the (zero-word) tree
	sec := bx.section()
	var data []float64
	if nd.p == root {
		data = nd.proc.Scratch(sec.elems)
		sec.pack(data, arr.Data)
	}
	data = nd.proc.Broadcast(root, data)
	if nd.p != root {
		if len(data) != sec.elems {
			return fmt.Errorf("broadcast %s: size mismatch %d != %d", c.array, len(data), sec.elems)
		}
		sec.unpack(arr.Data, data)
	}
	return nil
}

// postedOp is one in-flight split-phase operation: the machine handle
// plus where the payload lands when the wait completes. The array and
// the clipped section are captured at post time, so the wait stores
// into exactly the section the post named. Ops are pooled per node.
type postedOp struct {
	h      machine.Handle
	arr    *Array
	sec    section
	isRoot bool // bcast: this processor supplied the data; nothing to store
}

// post files a pooled op under the statement's tag.
func (nd *node) post(tag int, arr *Array, sec section) *postedOp {
	var po *postedOp
	if n := len(nd.freeOps); n > 0 {
		po = nd.freeOps[n-1]
		nd.freeOps = nd.freeOps[:n-1]
	} else {
		po = new(postedOp)
	}
	po.arr, po.sec, po.isRoot = arr, sec, false
	nd.posted[tag] = po
	return po
}

// complete waits for the op posted under tag (nil: the post's guard was
// false, nothing is in flight) and returns its payload. The caller
// hands the op back with release once the payload is stored.
func (nd *node) complete(tag int) (*postedOp, []float64) {
	po := nd.posted[tag]
	if po == nil {
		return nil, nil
	}
	nd.posted[tag] = nil
	return po, nd.proc.WaitHandle(&po.h)
}

func (nd *node) release(po *postedOp) {
	po.arr = nil
	nd.freeOps = append(nd.freeOps, po)
}

// postRecv posts the receive half of a split halo exchange. Like recv
// it is a no-op for out-of-range or self sources and empty sections —
// in those cases nothing is filed and the matching waitRecv is a no-op
// too, which is what makes the schedule pass's unguarded waits safe
// under the post's original guard.
func (c *commSite) postRecv(fr *frame) error {
	nd := fr.nd
	arr, err := c.begin(fr)
	if err != nil {
		return err
	}
	bx, ok, err := c.clipped(fr, arr)
	if !ok {
		return err
	}
	src, err := c.peerOf(fr)
	if err != nil {
		return err
	}
	if src < 0 || src >= nd.pl.nproc || src == nd.p || bx.elems == 0 {
		return nil
	}
	po := nd.post(c.tag, arr, bx.section())
	nd.proc.IRecvInto(&po.h, src)
	return nil
}

// waitRecv completes the postRecv with the same tag, storing the
// message into the section captured at post time.
func (c *commSite) waitRecv(fr *frame) error {
	nd := fr.nd
	nd.proc.SetContext(c.unit, c.line, c.op)
	po, data := nd.complete(c.tag)
	if po == nil {
		return nil
	}
	if len(data) != po.sec.elems {
		return fmt.Errorf("waitrecv %s: message size %d != section size %d (proc %d)",
			c.array, len(data), po.sec.elems, nd.p)
	}
	po.sec.unpack(po.arr.Data, data)
	nd.release(po)
	return nil
}

// postBcast posts the send half of a split-phase broadcast: the root's
// tree sends happen now, every other processor records what to wait
// for.
func (c *commSite) postBcast(fr *frame) error {
	nd := fr.nd
	arr, err := c.begin(fr)
	if err != nil {
		return err
	}
	bx, ok, err := c.clipped(fr, arr)
	if !ok {
		return err
	}
	root, err := c.root(fr)
	if err != nil {
		return err
	}
	po := nd.post(c.tag, arr, bx.section())
	var data []float64
	if nd.p == root {
		po.isRoot = true
		data = nd.proc.Scratch(po.sec.elems)
		po.sec.pack(data, arr.Data)
	}
	nd.proc.PostBcastInto(&po.h, root, data)
	return nil
}

// waitBcast completes the postBcast with the same tag.
func (c *commSite) waitBcast(fr *frame) error {
	nd := fr.nd
	nd.proc.SetContext(c.unit, c.line, c.op)
	po, data := nd.complete(c.tag)
	if po == nil {
		return nil
	}
	if !po.isRoot { // the root supplied the data; its copy is current
		if len(data) != po.sec.elems {
			return fmt.Errorf("waitbcast %s: size mismatch %d != %d", c.array, len(data), po.sec.elems)
		}
		po.sec.unpack(po.arr.Data, data)
	}
	nd.release(po)
	return nil
}

// ownerParts groups the box's element offsets by owning processor under
// arr's distribution: owner q's offsets, in row-major order, are
// offs[start[q]:start[q+1]]. Elements no processor of this machine owns
// are left out. The slices are node scratch, valid until the next call.
func (nd *node) ownerParts(arr *Array, bx *box) (offs, start []int, err error) {
	np := nd.pl.nproc
	dim := arr.Dist.DistDim()
	if dim >= bx.n {
		return nil, nil, fmt.Errorf("distributed dimension %d of a %d-dimensional section", dim+1, bx.n)
	}
	start = resize(&nd.partStart, np+1)
	clear(start)
	if bx.elems == 0 {
		return nil, start, nil
	}
	// the owner depends on the distributed coordinate only: look each
	// coordinate up once, and count per owner from the coordinate's slab
	owner := resize(&nd.ownerTab, bx.ext[dim])
	slab := bx.elems / bx.ext[dim]
	for i := range owner {
		o := arr.Dist.OwnerIndex(bx.lo[dim] + i)
		if o < 0 || o >= np {
			o = -1
		} else {
			start[o+1] += slab
		}
		owner[i] = o
	}
	pos := resize(&nd.partPos, np)
	for q := 0; q < np; q++ {
		pos[q] = start[q]
		start[q+1] += start[q]
	}
	offs = resize(&nd.partOffs, start[np])
	var idx [maxRank]int
	off := bx.base
	for {
		if o := owner[idx[dim]]; o >= 0 {
			offs[pos[o]] = off
			pos[o]++
		}
		d := bx.n - 1
		for ; d >= 0; d-- {
			idx[d]++
			off += bx.str[d]
			if idx[d] < bx.ext[d] {
				break
			}
			off -= idx[d] * bx.str[d]
			idx[d] = 0
		}
		if d < 0 {
			return offs, start, nil
		}
	}
}

// resize returns *buf with length n, growing it when needed.
func resize(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// allGather makes a distributed section fully replicated. It is
// lowered as a binomial gather of owner blocks to processor 0 followed
// by a tree broadcast of the concatenation: 2(P-1) messages on
// 2·ceil(log2 P) critical-path steps.
func (c *commSite) allGather(fr *frame) error {
	nd := fr.nd
	np, p := nd.pl.nproc, nd.p
	arr, err := c.begin(fr)
	if err != nil {
		return err
	}
	if arr.Dist == nil || arr.Dist.IsReplicated() {
		return nil // data already everywhere
	}
	bx, ok, err := c.clipped(fr, arr)
	if !ok || np == 1 {
		return err
	}
	offs, start, err := nd.ownerParts(arr, &bx)
	if err != nil {
		return fmt.Errorf("allgather %s: %v", c.array, err)
	}
	// every processor computes the same part sizes, so the
	// concatenation's layout (ascending owner) needs no headers and
	// both ends of every link agree on whether a block range is empty
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
	for _, o := range offs[start[p]:start[p+1]] {
		buf[n] = arr.Data[o]
		n++
	}
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
	// distributes it and every processor unpacks by the shared layout
	// (offs is already in ascending-owner order)
	full := nd.proc.Broadcast(0, buf[:n])
	if len(full) != total {
		return fmt.Errorf("allgather %s: gathered %d words, want %d", c.array, len(full), total)
	}
	for i, o := range offs {
		arr.Data[o] = full[i]
	}
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
// leaves the result everywhere: a binomial combining tree into
// processor 0 (machine.Reduce) followed by the tree broadcast back.
// The critical path is 2·ceil(log2 P) message steps; the tree bounds
// each in-degree by ceil(log2 P), the iPSC library's own gather shape.
// (On this machine model, where a receive costs the receiver nothing,
// a flat gather's last arrival is actually latency-optimal — the tree
// buys its scaling at up to log2(P) extra flights;
// machine.TestReduceTreeVsLinearGather pins both sides of that trade.)
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
		if nd.pl.nproc == 1 {
			return nil
		}
		acc := nd.proc.Reduce(0, *sc, combine)
		var buf []float64
		if nd.p == 0 {
			buf = nd.proc.Scratch(1)
			buf[0] = acc
		}
		*sc = nd.proc.Broadcast(0, buf)[0]
		return nil
	}
}

// remap moves an array between two distributions. A physical remap is
// simulated as a full exchange of the owned regions, so every
// processor's copy stays fully valid, and charged at the true remap
// volume.
func (lw *lowerer) remap(st *ast.Remap) stmtFn {
	c := lw.comm(st, "remap", "remap", st.Array, nil, nil, 0)
	to := decomp.NewDecomp(st.To...)
	return func(fr *frame) error {
		nd := fr.nd
		np, p := nd.pl.nproc, nd.p
		arr, err := c.begin(fr)
		if err != nil {
			return err
		}
		sizes := make([]int, len(arr.Lo))
		for d := range sizes {
			sizes[d] = arr.Hi[d] - arr.Lo[d] + 1
		}
		newDist, err := decomp.NewDist(to, sizes, np)
		if err != nil {
			return fmt.Errorf("remap %s: %v", c.array, err)
		}
		old := arr.Dist
		if st.InPlace || old == nil || old.IsReplicated() {
			arr.Dist = newDist
			return nil
		}
		if words := old.RemapWords(newDist); words > 0 {
			var b bounds
			b.n = len(arr.Lo)
			copy(b.lo[:], arr.Lo)
			copy(b.hi[:], arr.Hi)
			bx, _ := clip(arr, &b)
			offs, start, err := nd.ownerParts(arr, &bx)
			if err != nil {
				return fmt.Errorf("remap %s: %v", c.array, err)
			}
			mine := offs[start[p]:start[p+1]]
			if len(mine) > 0 {
				data := nd.proc.Scratch(len(mine))
				for i, o := range mine {
					data[i] = arr.Data[o]
				}
				for q := 0; q < np; q++ {
					if q != p {
						nd.proc.Send(q, data)
					}
				}
			}
			for q := 0; q < np; q++ {
				part := offs[start[q]:start[q+1]]
				if q == p || len(part) == 0 {
					continue
				}
				data := nd.proc.Recv(q)
				if len(data) != len(part) {
					return fmt.Errorf("remap %s: message size %d != part size %d (proc %d from %d)",
						c.array, len(data), len(part), p, q)
				}
				for i, o := range part {
					arr.Data[o] = data[i]
				}
			}
			nd.proc.CountRemap(words/np, np-1)
		}
		arr.Dist = newDist
		return nil
	}
}
