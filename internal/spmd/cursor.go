package spmd

import (
	"slices"

	"fortd/internal/ast"
)

// Cursor loops. A DO whose body is only assignments, and whose array
// subscripts are each the loop index plus a constant or an expression
// the body cannot change, addresses every element in closed form: the
// offset of a reference is affine in the iteration number. Such a loop
// is lowered with one cursor per array reference; on entry the cursors
// are positioned (arrays resolved, invariant subscripts evaluated once,
// both ends of the iteration range checked against every bound and
// placed in one piece of storage, Array.place) and the body then loads
// and stores data[off], with off += stride per iteration. Whatever
// cannot be established on entry — an unknown array, a rank mismatch, a
// subscript that leaves its bounds or its piece of storage on any
// iteration, an invariant that fails to evaluate, two names for one
// scalar — leaves the frame as it was, and the same closures subscript
// every reference the general way, so errors read and fire as ever.
//
// A plan lives as long as its Program, so what a cursor loop adds to it
// is kept to the list of its references: the rest lives in fields the
// general path has anyway (arrayRef.cur and ivar, intOperand.k), a loop
// that does not qualify is lowered to what it always was, and only a
// loop with a strip form (strip.go) carries one.

// cursor addresses one array reference of a cursor loop in the current
// iteration: data[off], and stride further on in the next.
type cursor struct {
	data        []float64
	off, stride int
}

// cursorLoop is what positioning needs to know of a loop.
type cursorLoop struct {
	refs []*arrayRef // refs[k] is addressed by the frame's cursor k
	opt  *loopOpt    // nil: every scalar involved is the frame's own, and the body has no strip form
}

// loopOpt is what few cursor loops have: scalars to check for aliases
// on entry, or a strip form (strip.go).
type loopOpt struct {
	// alias lists the scalars that may share storage under different
	// names because the frame does not own them (formals are passed by
	// reference): the first written are the ones the loop changes, the
	// rest are read by invariant expressions.
	alias   []int32
	written int
	strip   *strip // nil: the body runs element by element
}

const (
	// maxExactIndex bounds the index values a cursor loop handles: in this
	// range float64 arithmetic on the index variable is integer arithmetic.
	maxExactIndex = 1 << 52
	// maxCursors bounds the array references of one cursor loop
	// (arrayRef.cur is an int16).
	maxCursors = 1 << 15
)

// cursorLoop decides whether st's body can run on cursors (nil: no). If
// so the result has room for the body's array references, which
// lw.arrayRef fills in as it lowers them while lw.walk is set. This pass
// allocates nothing but what it returns.
func (lw *lowerer) cursorLoop(st *ast.Do) *cursorLoop {
	if _, isConst := lw.consts[st.Var]; isConst {
		return nil // reads of the name fold to the PARAMETER's value
	}
	lp := lw.lp
	lw.index = st.Var
	lp.written = append(lp.written[:0], int32(lw.slot(st.Var)))
	lp.read = lp.read[:0]
	for _, s := range st.Body {
		as, ok := s.(*ast.Assign)
		if !ok {
			return nil
		}
		switch lhs := as.Lhs.(type) {
		case *ast.Ident:
			if lhs.Name == st.Var {
				return nil
			}
			lp.written = append(lp.written, int32(lw.slot(lhs.Name)))
		case *ast.ArrayRef:
		default:
			return nil
		}
	}
	n := 0
	for _, s := range st.Body {
		as := s.(*ast.Assign)
		l, okl := lw.cursorRefs(as.Lhs)
		r, okr := lw.cursorRefs(as.Rhs)
		if !okl || !okr {
			return nil
		}
		n += l + r
	}
	if n == 0 || n > maxCursors {
		return nil
	}
	var sp *strip
	if mark := len(lp.read); lw.strips(st) {
		sp = &strip{flops: make([]int, 0, len(st.Body))}
	} else {
		lp.read = lp.read[:mark] // what the body's right sides read stays live
	}
	// only scalars the frame does not own can be aliased, and only a
	// written one among them makes that matter
	owned := func(slot int32) bool { return lw.owned[lw.pp.names[slot]] }
	lp.written = slices.DeleteFunc(lp.written, owned)
	lp.read = slices.DeleteFunc(lp.read, owned)
	cl := &cursorLoop{refs: make([]*arrayRef, 0, n)}
	if w := len(lp.written); w > 0 && w+len(lp.read) > 1 {
		cl.opt = &loopOpt{alias: append(slices.Clone(lp.written), lp.read...), written: w}
	}
	if sp != nil {
		if cl.opt == nil {
			cl.opt = &loopOpt{}
		}
		cl.opt.strip = sp
	}
	return cl
}

// cursorRefs counts the array references in e and checks that each can
// be addressed by a cursor: every subscript is the loop index plus a
// constant, or invariant.
func (lw *lowerer) cursorRefs(e ast.Expr) (n int, ok bool) {
	switch x := e.(type) {
	case *ast.IntLit, *ast.RealLit, *ast.Ident:
		return 0, true
	case *ast.Unary:
		return lw.cursorRefs(x.X)
	case *ast.Binary:
		l, okl := lw.cursorRefs(x.X)
		r, okr := lw.cursorRefs(x.Y)
		return l + r, okl && okr
	case *ast.FuncCall:
		for _, a := range x.Args {
			m, ok := lw.cursorRefs(a)
			if !ok {
				return 0, false
			}
			n += m
		}
		return n, true
	case *ast.ArrayRef:
		if len(x.Subs) > maxRank {
			return 0, false
		}
		for _, sub := range x.Subs {
			if _, index := lw.indexPlus(sub); !index && !lw.invariant(sub) {
				return 0, false
			}
		}
		return 1, true
	}
	return 0, false
}

// indexPlus matches the subscripts i, i+c and i-c for the loop variable
// i of the cursor loop being lowered and an integer constant c, and
// returns c.
func (lw *lowerer) indexPlus(e ast.Expr) (int, bool) {
	if id, ok := e.(*ast.Ident); ok {
		return 0, id.Name == lw.index
	}
	b, ok := e.(*ast.Binary)
	if !ok || (b.Op != ast.OpAdd && b.Op != ast.OpSub) {
		return 0, false
	}
	if id, ok := b.X.(*ast.Ident); !ok || id.Name != lw.index {
		return 0, false
	}
	var c int
	switch y := b.Y.(type) {
	case *ast.IntLit:
		c = y.Value
	case *ast.Ident:
		if c, ok = lw.consts[y.Name]; !ok {
			return 0, false
		}
	default:
		return 0, false
	}
	if c < -maxExactIndex || c > maxExactIndex {
		return 0, false
	}
	if b.Op == ast.OpSub {
		c = -c
	}
	return c, true
}

// invariant reports whether e keeps its value through the cursor loop
// being lowered: it reads no array element and no scalar the loop
// writes. The scalars it does read are noted in lw.lp.read.
func (lw *lowerer) invariant(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.IntLit, *ast.RealLit:
		return true
	case *ast.Ident:
		if _, isConst := lw.consts[x.Name]; isConst {
			return true
		}
		lp, slot := lw.lp, int32(lw.slot(x.Name))
		if slices.Contains(lp.written, slot) {
			return false
		}
		if !slices.Contains(lp.read, slot) {
			lp.read = append(lp.read, slot)
		}
		return true
	case *ast.Unary:
		return lw.invariant(x.X)
	case *ast.Binary:
		return lw.invariant(x.X) && lw.invariant(x.Y)
	case *ast.FuncCall:
		for _, a := range x.Args {
			if !lw.invariant(a) {
				return false
			}
		}
		return true
	}
	return false
}

// cursorRef makes r, just lowered from subs in the body of a cursor
// loop, the loop's next reference: it notes which subscripts are the
// index plus a constant, and leaves the constant where the general
// path has no use for it.
func (lw *lowerer) cursorRef(r *arrayRef, subs []ast.Expr) {
	r.cur = int16(len(lw.walk.refs))
	for d, sub := range subs {
		if c, ok := lw.indexPlus(sub); ok {
			r.ivar |= 1 << d
			r.subs[d].k = c
		}
	}
	lw.walk.refs = append(lw.walk.refs, r)
}

// stripForm is the loop's strip form (nil: none).
func (cl *cursorLoop) stripForm() *strip {
	if cl == nil || cl.opt == nil {
		return nil
	}
	return cl.opt.strip
}

// distinct reports whether no scalar the loop writes shares storage with
// another scalar of the alias set. A name not yet defined will live in
// the frame's own slot.
func (a *loopOpt) distinct(fr *frame) bool {
	storage := func(slot int32) *float64 {
		if p := fr.bind[slot].ref; p != nil {
			return p
		}
		return &fr.vals[slot]
	}
	for i, w := range a.alias[:a.written] {
		pw := storage(w)
		for _, x := range a.alias[i+1:] {
			if storage(x) == pw {
				return false
			}
		}
	}
	return true
}

// position sets the frame's cursors for the n iterations l, l+s, ..
// and reports whether the loop may run on them. It has no effect the
// general loop could observe: a failed evaluation is discarded, the
// general loop will meet it again in its own time.
func (cl *cursorLoop) position(fr *frame, l, s, n int) bool {
	if n == 0 {
		return false // no iteration
	}
	last := l + (n-1)*s
	if l < -maxExactIndex || l > maxExactIndex || last < -maxExactIndex || last > maxExactIndex {
		return false
	}
	if cl.opt != nil && !cl.opt.distinct(fr) {
		return false
	}
	nd := fr.nd
	for k, r := range cl.refs {
		arr := fr.bind[r.slot].arr
		if arr == nil || len(arr.Lo) != len(r.subs) {
			return false
		}
		var first, step [maxRank]int
		for dim := range r.subs {
			lo, hi := arr.Lo[dim], arr.Hi[dim]
			sub := &r.subs[dim]
			if r.ivar&(1<<dim) != 0 {
				first[dim], step[dim] = l+sub.k, s
				if end := last + sub.k; end < lo || end > hi {
					return false
				}
			} else {
				first[dim] = sub.eval(fr)
				if nd.err != nil {
					nd.takeErr()
					return false
				}
			}
			if first[dim] < lo || first[dim] > hi {
				return false
			}
		}
		data, off, stride, ok := arr.place(&first, &step, n)
		if !ok {
			return false
		}
		fr.curs[k] = cursor{data: data, off: off, stride: stride}
	}
	return true
}
