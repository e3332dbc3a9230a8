package spmd

import (
	"unsafe"

	"fortd/internal/ast"
)

// Strips. A cursor loop whose body is only array assignments, each
// right side made of cursor loads, the loop index, expressions the loop
// cannot change, unary minus and real + - * /, has a strip form: each
// statement in turn is evaluated for up to stripLen iterations into a
// scratch buffer and stored, one operation of the expression at a time
// over the whole strip, and the strip's flops are charged at once
// (machine.Proc.ComputeStrip, the same additions in the same order).
// That reorders the body's loads and stores across iterations, so a loop
// runs in strips only where no iteration can see another's stores: a
// body that references a name it writes at two different index offsets
// has no strip form (lowering refuses it), and on entry no written
// cursor may stay on one element of a moving loop or meet another
// cursor's storage, unless the two walk the very same elements or never
// the same one (disjoint). Otherwise the loop walks its cursors element
// by element.

// stripLen is the most iterations one strip evaluates.
const stripLen = 256

// strip is a cursor loop's strip form.
type strip struct {
	stmts []stripStmt
	flops []int     // flops[k]: what one iteration of statement k costs
	inv   []operand // the invariant operands, evaluated once on entry
	bufs  int       // result buffers a statement needs
	index bool      // the body reads the loop index
}

// stripStmt stores src into the frame's cursor w.
type stripStmt struct {
	w   int
	src vsrc
}

type vkind uint8

const (
	vCursor vkind = iota // the frame's cursor k
	vInv                 // invariant operand k
	vIndex               // the loop index
	vOp                  // op, evaluated into its buffer
)

// vsrc is an operand of a strip.
type vsrc struct {
	kind vkind
	k    int
	op   *vop
}

// vop is x op y, or -x, evaluated into buffer buf.
type vop struct {
	op   ast.BinOp
	neg  bool
	x, y vsrc
	buf  int
}

// strips reports whether the body of st, a cursor loop, has a strip
// form. It allocates nothing; the scalars the right sides read are noted
// in lw.lp.read.
func (lw *lowerer) strips(st *ast.Do) bool {
	for _, s := range st.Body {
		w, ok := s.(*ast.Assign).Lhs.(*ast.ArrayRef)
		if !ok || lw.integer(w.Name) {
			return false // an INTEGER element is stored truncated
		}
		for _, s := range st.Body {
			as := s.(*ast.Assign)
			if lw.offsetConflict(w, as.Lhs) || lw.offsetConflict(w, as.Rhs) {
				return false
			}
		}
	}
	for _, s := range st.Body {
		if !lw.stripExpr(s.(*ast.Assign).Rhs) {
			return false
		}
	}
	return true
}

// stripExpr reports whether e is made of what a strip evaluates.
func (lw *lowerer) stripExpr(e ast.Expr) bool {
	if lw.invariant(e) {
		return true
	}
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name == lw.index
	case *ast.ArrayRef:
		return true // cursorRefs checked its subscripts
	case *ast.Unary:
		return x.Op == "-" && lw.stripExpr(x.X)
	case *ast.Binary:
		switch x.Op {
		case ast.OpDiv:
			if lw.isIntExpr(x.X) && lw.isIntExpr(x.Y) {
				return false // integer division
			}
		case ast.OpAdd, ast.OpSub, ast.OpMul:
		default:
			return false
		}
		return lw.stripExpr(x.X) && lw.stripExpr(x.Y)
	}
	return false
}

// offsetConflict reports whether e references w's array with an index
// subscript whose offset differs from w's in the same dimension.
func (lw *lowerer) offsetConflict(w *ast.ArrayRef, e ast.Expr) (found bool) {
	ast.WalkExpr(e, func(e ast.Expr) {
		r, ok := e.(*ast.ArrayRef)
		if !ok || r.Name != w.Name || len(r.Subs) != len(w.Subs) {
			return
		}
		for d := range r.Subs {
			c, ok := lw.indexPlus(r.Subs[d])
			cw, okw := lw.indexPlus(w.Subs[d])
			found = found || ok && okw && c != cw
		}
	})
	return found
}

// lowerStrip fills in the strip form of st, whose body has just been
// lowered on cursors (and its flops noted): its k-th array reference in
// evaluation order, right side before left, is cursor k.
func (lw *lowerer) lowerStrip(st *ast.Do, sp *strip) {
	lw.lp.written = append(lw.lp.written[:0], int32(lw.slot(st.Var))) // invariant's view of the loop
	k := 0
	sp.stmts = make([]stripStmt, len(st.Body))
	for i, s := range st.Body {
		src := lw.stripSrc(sp, s.(*ast.Assign).Rhs, 0, &k)
		sp.stmts[i] = stripStmt{w: k, src: src}
		k++
	}
}

// stripSrc lowers e, which stripExpr accepted, with its operations
// evaluated into buffer buf and up.
func (lw *lowerer) stripSrc(sp *strip, e ast.Expr, buf int, k *int) vsrc {
	if lw.invariant(e) {
		o, _ := lw.expr(e)
		sp.inv = append(sp.inv, o)
		return vsrc{kind: vInv, k: len(sp.inv) - 1}
	}
	switch e.(type) {
	case *ast.Ident:
		sp.index = true
		return vsrc{kind: vIndex}
	case *ast.ArrayRef:
		*k++
		return vsrc{kind: vCursor, k: *k - 1}
	}
	sp.bufs = max(sp.bufs, buf+1)
	if u, ok := e.(*ast.Unary); ok {
		return vsrc{kind: vOp, op: &vop{neg: true, x: lw.stripSrc(sp, u.X, buf, k), buf: buf}}
	}
	b := e.(*ast.Binary)
	x := lw.stripSrc(sp, b.X, buf, k)
	ybuf := buf
	if x.kind == vOp {
		ybuf++ // x's result holds buf
	}
	return vsrc{kind: vOp, op: &vop{op: b.Op, x: x, y: lw.stripSrc(sp, b.Y, ybuf, k), buf: buf}}
}

// disjoint reports whether the n iterations the frame's cursors are
// positioned for may run in strips: no written cursor stays on one
// element while the loop moves, and none meets the storage another
// cursor spans, unless the two walk the same elements (the same start
// and stride) or, at the same stride, elements the other never touches.
// This is the must-not-alias question over storage addresses, answered
// exactly.
func (sp *strip) disjoint(curs []cursor, n int) bool {
	for _, st := range sp.stmts {
		w := &curs[st.w]
		if w.stride == 0 && n > 1 {
			return false
		}
		wlo, whi := span(w, n)
		for k := range curs {
			c := &curs[k]
			lo, hi := span(c, n)
			// 8: the bytes of a float64
			if k == st.w || c.stride == w.stride && (lo == wlo || w.stride != 0 && int(lo-wlo)%(8*w.stride) != 0) {
				continue
			}
			if lo <= whi && wlo <= hi {
				return false
			}
		}
	}
	return true
}

// span is the range of addresses c reads or writes in n iterations.
func span(c *cursor, n int) (lo, hi uintptr) {
	first, last := uintptr(unsafe.Pointer(&c.data[c.off])), uintptr(unsafe.Pointer(&c.data[c.off+(n-1)*c.stride]))
	return min(first, last), max(first, last)
}

// run executes the n iterations l, l+s, .. of the loop in strips on
// curs, the frame's cursors positioned for them.
// It reports false, having done nothing, where the loop must walk
// instead: the cursors are not disjoint, or an invariant operand fails
// to evaluate (the walk meets the failure in its own time).
func (sp *strip) run(fr *frame, curs []cursor, l, s, n int) bool {
	if !sp.disjoint(curs, n) {
		return false
	}
	// the scratch: bufs buffers of w results, one for operands gathered
	// from strided storage, one for the index values, then the invariant
	// operands
	nd, ar, w := fr.nd, fr.nd.ar, min(n, stripLen)
	idx := (sp.bufs + 1) * w
	inv := idx + w
	if need := inv + len(sp.inv); cap(ar.strip) < need {
		ar.strip = make([]float64, need)
	}
	sc := ar.strip[:inv+len(sp.inv)]
	for k, o := range sp.inv {
		sc[inv+k] = o.eval(fr)
	}
	if nd.err != nil {
		nd.takeErr()
		return false
	}
	for base := 0; base < n; base += w {
		m := min(w, n-base)
		if sp.index {
			for j := range sc[idx : idx+m] {
				sc[idx+j] = float64(l + (base+j)*s)
			}
		}
		for _, st := range sp.stmts {
			xs, c := sp.view(st.src, fr, sc, w, m).slice(sc[sp.bufs*w:][:m]), curs[st.w]
			if c.stride == 1 {
				copy(c.data[c.off:], xs)
				continue
			}
			for _, v := range xs {
				c.data[c.off] = v
				c.off += c.stride
			}
		}
		for k := range curs {
			curs[k].off += m * curs[k].stride
		}
		nd.proc.ComputeStrip(m, sp.flops)
	}
	return true
}

// view returns where the m values of o in the current strip are, as a
// cursor: data[off], data[off+stride], .. An operation is evaluated into
// its buffer of the scratch sc, laid out for strips of w, first.
func (sp *strip) view(o vsrc, fr *frame, sc []float64, w, m int) cursor {
	switch o.kind {
	case vCursor:
		return fr.curs[o.k]
	case vInv:
		return cursor{data: sc, off: (sp.bufs+2)*w + o.k}
	case vIndex:
		return cursor{data: sc, off: (sp.bufs + 1) * w, stride: 1}
	}
	op := o.op
	dst, tmp := sc[op.buf*w:][:m], sc[sp.bufs*w:][:m]
	x := sp.view(op.x, fr, sc, w, m)
	if op.neg {
		xs := x.slice(dst)
		for j := range dst {
			dst[j] = -xs[j]
		}
		return cursor{data: dst, stride: 1}
	}
	y := sp.view(op.y, fr, sc, w, m)
	xbuf := dst
	if op.y.kind == vOp && op.y.op.buf == op.buf {
		xbuf = tmp // y's result holds dst
	}
	xs, ys := x.slice(xbuf), y.slice(tmp)
	xs, ys = xs[:len(dst)], ys[:len(dst)]
	switch op.op {
	case ast.OpAdd:
		for j := range dst {
			dst[j] = xs[j] + ys[j]
		}
	case ast.OpSub:
		for j := range dst {
			dst[j] = xs[j] - ys[j]
		}
	case ast.OpMul:
		for j := range dst {
			dst[j] = xs[j] * ys[j]
		}
	default:
		for j := range dst {
			dst[j] = xs[j] / ys[j]
		}
	}
	return cursor{data: dst, stride: 1}
}

// slice returns the len(buf) values c addresses as one slice: in place
// where they lie next to each other, else gathered into buf.
func (c cursor) slice(buf []float64) []float64 {
	if c.stride == 1 {
		return c.data[c.off:][:len(buf)]
	}
	for j := range buf {
		buf[j] = c.data[c.off]
		c.off += c.stride
	}
	return buf
}
