package spmd

import (
	"fmt"
	"math"
	"slices"

	"fortd/internal/ast"
	"fortd/internal/decomp"
	"fortd/internal/machine"
)

// Storage. A node program writes global subscripts; what a processor
// stores of an array is its window: all of an undistributed or
// replicated array, and of a distributed main-program array the
// subscripts of the distributed dimension it owns — a BLOCK as one run
// widened by the overlap offsets the compiler estimated (§5.6, Figure
// 13), CYCLIC(k) packed together by its closed form. What else it
// receives lands in a buffer of the receiving communication site, reused
// on that site's next delivery (Figure 14's buffers). An element in
// neither reads as NaN and a store to it is dropped.

// Array is one array as one processor holds it.
type Array struct {
	Data   []float64 // the window's elements, row-major
	Lo, Hi []int     // declared bounds per dimension
	Dist   *decomp.Dist
	win    *window    // nil: every subscript is stored
	name   string     // of a main-program array, the only kind stored by share
	bufs   []*siteBuf // latest delivery last
	spare  []float64  // the storage a remap left behind, for the next one
}

// size counts the elements with a distributed subscript of w's (nil: all).
func (a *Array) size(w *window) int {
	n := 1
	for d := range a.Lo {
		n *= a.ext(w, d)
	}
	return n
}

// ext is the number of subscripts of dimension d that w holds.
func (a *Array) ext(w *window, d int) int {
	if w != nil && w.dim == d {
		return w.n
	}
	return a.Hi[d] - a.Lo[d] + 1
}

// index maps a subscript list to the element's row-major position in
// the declared array.
func (a *Array) index(idx []int) (int, error) {
	if len(idx) != len(a.Lo) {
		return 0, fmt.Errorf("%d subscripts for a rank-%d array", len(idx), len(a.Lo))
	}
	off := 0
	for d := range idx {
		if idx[d] < a.Lo[d] || idx[d] > a.Hi[d] {
			return 0, fmt.Errorf("index %d out of bounds [%d:%d] in dim %d", idx[d], a.Lo[d], a.Hi[d], d)
		}
		off = off*(a.Hi[d]-a.Lo[d]+1) + (idx[d] - a.Lo[d])
	}
	return off, nil
}

// local returns the offset in Data of the element at idx (in bounds), or
// -1 if the window does not hold it.
func (a *Array) local(idx *[maxRank]int) int {
	off := 0
	for d := range a.Lo {
		l := idx[d] - a.Lo[d]
		if w := a.win; w != nil && w.dim == d {
			if l = w.slot(idx[d]); l < 0 {
				return -1
			}
		}
		off = off*a.ext(a.win, d) + l
	}
	return off
}

// at returns the element at idx (in bounds) as this processor holds it,
// in its window or the latest site buffer that covers it, or nil.
func (a *Array) at(idx *[maxRank]int) *float64 {
	if data, off, _, ok := a.place(idx, &[maxRank]int{}, 1); ok {
		return &data[off]
	}
	return nil
}

// load reads the element at idx, NaN if the processor does not hold it.
func (a *Array) load(idx *[maxRank]int) float64 {
	if el := a.at(idx); el != nil {
		return *el
	}
	return math.NaN()
}

// place addresses the n elements first, first+step, .. (in bounds) in
// one piece of storage — the window, or failing that the latest site
// buffer that holds any of them — as data[off], data[off+stride], ..,
// or fails where element-by-element access would change pieces.
func (a *Array) place(first, step *[maxRank]int, n int) (data []float64, off, stride int, ok bool) {
	h := all
	for d := range a.Lo {
		l, s := first[d]-a.Lo[d], step[d]
		if w := a.win; w != nil && w.dim == d {
			if l, s, h = w.run(first[d], step[d], n); h != all {
				break
			}
		}
		off, stride = off*a.ext(a.win, d)+l, stride*a.ext(a.win, d)+s
	}
	data = a.Data
	for k := len(a.bufs) - 1; h == none && k >= 0; k-- {
		data = a.bufs[k].data
		off, stride, h = a.bufs[k].run(first, step, n, len(a.Lo))
	}
	return data, off, stride, h == all
}

// each calls f with the subscripts of every element of bx (nil: of the
// array) whose distributed subscript is one of w's (nil: any), in message
// (row-major) order.
func (a *Array) each(bx *box, w *window, f func(idx [maxRank]int)) {
	var idx [maxRank]int
	a.walk(0, &idx, bx, w, f)
}

func (a *Array) walk(d int, idx *[maxRank]int, bx *box, w *window, f func(idx [maxRank]int)) {
	switch {
	case d == len(a.Lo):
		f(*idx)
	case w != nil && w.dim == d:
		for l := 0; l < w.n; l++ {
			idx[d] = w.index(l)
			a.walk(d+1, idx, bx, w, f)
		}
	default:
		lo, hi := a.Lo[d], a.Hi[d]
		if bx != nil {
			lo, hi = bx.lo[d], bx.hi[d]
		}
		for idx[d] = lo; idx[d] <= hi; idx[d]++ {
			a.walk(d+1, idx, bx, w, f)
		}
	}
}

// runs calls f for each run of the elements whose subscript in own's
// dimension is one of own's, a share of the distribution a stores by:
// n elements that lie next to each other both in the declared array,
// from offset full, and in Data, from offset local.
func (a *Array) runs(own *window, f func(full, local, n int)) {
	d := own.dim
	outer, inner := 1, 1
	for k := range a.Lo {
		switch {
		case k < d:
			outer *= a.ext(nil, k)
		case k > d:
			inner *= a.ext(nil, k)
		}
	}
	slot := func(i int) int {
		if a.win == nil {
			return i - a.Lo[d]
		}
		return a.win.slot(i)
	}
	for l := 0; l < own.n; {
		i, s, r := own.index(l), slot(own.index(l)), 1
		for l+r < own.n && own.index(l+r) == i+r && slot(i+r) == s+r {
			r++
		}
		if s >= 0 {
			for o := 0; o < outer; o++ {
				f((o*a.ext(nil, d)+i-a.Lo[d])*inner, (o*a.ext(a.win, d)+s)*inner, r*inner)
			}
		}
		l += r
	}
}

// gather copies the elements of bx, as this processor holds them, into
// dst in message order; an element it does not hold goes out as NaN.
func (a *Array) gather(bx *box, dst []float64) {
	if bx.stored {
		sec := bx.section()
		sec.walk(dst, a.Data, false)
		return
	}
	idx := bx.lo
	for k := range dst {
		dst[k] = a.load(&idx)
		bx.next(&idx)
	}
}

// deliver stores data, a message just received, as the elements of bx:
// in the window if it holds them all, else in site c's buffer (an
// allgather staged them there) and whatever of the window they cover.
func (a *Array) deliver(c *commSite, bx *box, data []float64) {
	if bx.stored {
		sec := bx.section()
		sec.walk(data, a.Data, true)
		return
	}
	copy(a.buffer(c, bx).data, data)
	if w := a.win; !w.any(bx.lo[w.dim], bx.hi[w.dim]) {
		return
	}
	idx := bx.lo
	for _, v := range data {
		if off := a.local(&idx); off >= 0 {
			a.Data[off] = v
		}
		bx.next(&idx)
	}
}

// siteBuf is one communication site's buffer for one array: the last
// section the site delivered that the array's window did not hold.
type siteBuf struct {
	site   *commSite
	lo, hi [maxRank]int // the section
	data   []float64    // its elements, row-major (none: emptied by a remap)
}

// buffer returns site c's buffer for the array, sized for bx and made
// the latest.
func (a *Array) buffer(c *commSite, bx *box) *siteBuf {
	k := slices.IndexFunc(a.bufs, func(b *siteBuf) bool { return b.site == c })
	if k < 0 {
		k, a.bufs = len(a.bufs), append(a.bufs, &siteBuf{site: c})
	}
	b := a.bufs[k]
	copy(a.bufs[k:], a.bufs[k+1:])
	a.bufs[len(a.bufs)-1] = b
	b.lo, b.hi = bx.lo, bx.hi
	if cap(b.data) < bx.elems {
		b.data = make([]float64, bx.elems)
	}
	b.data = b.data[:bx.elems]
	return b
}

type held int8 // how much of a run of elements a piece of storage holds

const none, some, all held = 0, 1, 2

// run places the n elements first, first+step, .. of a rank-dimensional
// array in the buffer.
func (b *siteBuf) run(first, step *[maxRank]int, n, rank int) (off, stride int, h held) {
	if len(b.data) == 0 {
		return 0, 0, none
	}
	h = all
	for d := 0; d < rank; d++ {
		last := first[d] + (n-1)*step[d]
		switch mn, mx := min(first[d], last), max(first[d], last); {
		case mx < b.lo[d] || mn > b.hi[d]:
			return 0, 0, none
		case mn < b.lo[d] || mx > b.hi[d]:
			h = some
		}
		ext := b.hi[d] - b.lo[d] + 1
		off, stride = off*ext+first[d]-b.lo[d], stride*ext+step[d]
	}
	return off, stride, h
}

// window is the share of one dimension's subscripts that one processor
// stores: those of lo..hi that are its own by the distribution, n of
// them, in slots 0..n-1 in subscript order.
type window struct {
	dim       int // the distributed dimension
	lo, hi, n int // lo > hi: none
	// CYCLIC(k) dealt to np processors, of which this is p's share
	// (k = 0: BLOCK in runs of b, every subscript from lo to hi)
	k, b, np, p int
	shift       int // a multiple of k·np that makes every subscript positive
	base        int // p's subscripts below lo
}

// newWindow is processor p's own share of subscripts lo..hi under dist.
func newWindow(dist *decomp.Dist, p, lo, hi int) window {
	b := max(dist.BlockSize(), 1)
	w := window{dim: dist.DistDim(), np: dist.P, p: p, lo: 1, b: b}
	if hi < lo || p >= w.np {
		return w
	}
	if dist.Specs[w.dim].Kind != ast.DistBlock {
		w.k, w.lo, w.hi = b, lo, hi
		if period := w.k * w.np; lo < 1 {
			w.shift = (period - lo) / period * period
		}
		w.base = w.count(lo - 1)
		w.n = w.count(hi) - w.base
		return w
	}
	// runs of b counted from subscript 1; the first and the last
	// processor take what lies beyond them
	if p > 0 {
		lo = max(lo, p*b+1)
	}
	if p < w.np-1 {
		hi = min(hi, (p+1)*b)
	}
	if lo <= hi {
		w.lo, w.hi, w.n = lo, hi, hi-lo+1
	}
	return w
}

// owner returns the processor whose share of w's distribution holds i.
func (w *window) owner(i int) int {
	if w.k == 0 {
		return min(max(i-1, 0)/w.b, w.np-1)
	}
	return (i - 1 + w.shift) / w.k % w.np
}

// receivers is the group of processors owning a subscript lo..hi of
// dist's distributed dimension in closed form, no window: BLOCK from lo's
// owner to hi's, CYCLIC(k) from lo's block's owner, one per block.
func receivers(dist *decomp.Dist, lo, hi int) machine.Group {
	if hi < lo {
		return machine.Group{}
	}
	b, np := max(dist.BlockSize(), 1), dist.P
	if dist.Specs[dist.DistDim()].Kind == ast.DistBlock {
		first := min(max(lo-1, 0)/b, np-1)
		return machine.Group{First: first, N: min(max(hi-1, 0)/b, np-1) - first + 1}
	}
	s := max(b*np-lo, 0) / (b * np) * (b * np) // newWindow's shift from lo
	first := (lo - 1 + s) / b
	return machine.Group{First: first % np, N: (hi-1+s)/b - first + 1}
}

// moves reports whether any element of a has another owner by w, a share
// of its new distribution, than by v, one of its old, stopping at the first.
func (a *Array) moves(v, w *window) bool {
	for i := a.Lo[v.dim]; i <= a.Hi[v.dim]; i++ {
		lo, hi, was := i, i, v.owner(i) // lo..hi: the subscripts in w.dim of the elements with i in v.dim
		if w.dim != v.dim {
			lo, hi = a.Lo[w.dim], a.Hi[w.dim]
		}
		for j := lo; j <= hi; j++ {
			if was != w.owner(j) {
				return true
			}
		}
	}
	return false
}

// count is the number of p's subscripts up to i under CYCLIC(k).
func (w *window) count(i int) int {
	x, period := i+w.shift, w.k*w.np
	return x/period*w.k + min(max(x%period-w.p*w.k, 0), w.k)
}

// any reports whether the window has a slot for any subscript of lo..hi.
func (w *window) any(lo, hi int) bool {
	lo, hi = max(lo, w.lo), min(hi, w.hi)
	return lo <= hi && (w.k == 0 || w.count(hi) > w.count(lo-1))
}

// slot returns the slot of subscript i, or -1 if the window has none.
func (w *window) slot(i int) int {
	switch {
	case i < w.lo || i > w.hi:
		return -1
	case w.k == 0:
		return i - w.lo
	case (i-1+w.shift)/w.k%w.np != w.p:
		return -1
	}
	return w.count(i) - 1 - w.base
}

// index returns the subscript in slot l.
func (w *window) index(l int) int {
	if w.k == 0 {
		return w.lo + l
	}
	l += w.base
	return (l/w.k*w.np+w.p)*w.k + l%w.k + 1 - w.shift
}

// run places the n subscripts c, c+s, .. in the window: the slot of the
// first and the distance between neighbours' slots, if it holds all.
func (w *window) run(c, s, n int) (slot, stride int, h held) {
	last := c + (n-1)*s
	switch mn, mx := min(c, last), max(c, last); {
	case mx < w.lo || mn > w.hi:
		return 0, 0, none
	case mn < w.lo || mx > w.hi:
		return 0, 0, some
	case w.k == 0:
		return c - w.lo, s, all
	case mn == mx:
		if slot = w.slot(c); slot < 0 {
			return 0, 0, none
		}
		return slot, 0, all
	}
	if slot = w.slot(c); slot >= 0 && w.k == 1 && s%w.np == 0 {
		return slot, s / w.np, all
	}
	return 0, 0, some
}

// poisoned returns buf resized to n elements, all NaN.
func poisoned(buf []float64, n int) []float64 {
	buf = slices.Grow(buf[:0], n)[:n]
	for i := range buf {
		buf[i] = math.NaN()
	}
	return buf
}
