package sched

import "fortd/internal/ast"

// ---------------------------------------------------------------------------
// Early shifts in a chain of pipelined loops

// A pipelined loop over a BLOCK array x that also reads x(i+s) is emitted
// by code generation (DESIGN.md deviation 13) as five statements, every
// one but the loop under a guard:
//
//	send x(f:f+s-1) to (my$p - 1)          S  the cells my$p-1 reads as x(i+s)
//	recv x(f+B:f+B+s-1) from (my$p + 1)    R  the same cells of my$p+1
//	recv x(f-s:f-1) from (my$p - 1)        Q  the predecessor's last s cells
//	do i = lo,hi                           D  x(i) = … x(i-s) … x(i+s) …
//	send x(f+B-s:f+B-1) to (my$p + 1)      P  the own last s cells
//
// with f = my$p·B+1. A chain is a run of such loops over one array with
// nothing in between. In it a processor waits at R for my$p+1 to start
// the loop, and my$p+1 starts only once P of the loop before has landed:
// five start-ups go around per loop. sendEarly splits every loop of the
// chain but the last after the iterations that write the cells the next
// loop's S sends, moves that send up into the gap and the loop's own R
// down into it:
//
//	Q; do i = lo,MIN(hi,h); S'; R; do i = MAX(lo,h+1),hi; P
//
// where h is the last cell S' names. The chain's first S stays where it
// is; a loop whose S went early and that is not split itself, the last
// one, receives Q before R. No message is added or removed. Only the
// statements involved are read (never Pass.effects, which would build
// the program's call graph):
//
//   - S' crosses the tail iterations, which write x(i) for i > h, R,
//     which receives cells above the head's (below), and P, a send on
//     the other link.
//   - R crosses Q, a receive from the other link into other cells, and
//     the head iterations, which reach at most x(h+c) for the largest
//     offset c the loop references: below R's first cell when the block
//     is at least s_l + s_{l+1} wide.
//   - The loop's variable and the scalars its body assigns are not read
//     by the loop's bounds, h or the moved statements, whose values
//     would otherwise differ at their new places.
//
// Every send keeps a subset of the receives it followed, so a schedule
// that did not deadlock does not start to. The early send saves about one
// start-up α per loop in steady state and delays each pipeline stage's P
// by one α, S' now going first: the rule pays for a chain of L ≥ P−1
// loops, where P is read off the guard of P, my$p .LT. P−1.
func sendEarly(v *view, start int) (int, bool) {
	i, gs := start, chainAt(v.list, start, v.chain[:0])
	for len(gs) < 2 {
		// a chain may start after other messages, which the halo split
		// would otherwise pass over together with the chain's first loop
		if _, snd, rcv := asComm(v.list[i]); snd == nil && rcv == nil || i+1 == len(v.list) {
			return start, false
		}
		i++
		gs = chainAt(v.list, i, gs[:0])
	}
	v.chain = gs
	last, known := lastProc(gs[0].pipe)
	nproc, moved := last+1, false
	for l := range gs[:len(gs)-1] {
		g, next := &gs[l], &gs[l+1]
		line := g.loop.Pos().Line
		why := g.why
		switch {
		case why != "":
		case !known:
			why = "processor count not readable from the pipeline send's guard"
		case len(gs) < nproc-1:
			v.missed(line, "a chain of %d loops is shorter than P-1 = %d: the early send would save about one start-up per loop in steady state and delay every pipeline stage's send by one", len(gs), nproc-1)
			continue
		default:
			why = g.movable(next)
		}
		if why != "" {
			v.missed(line, "%s", why)
			continue
		}
		g.early, moved = true, true
		v.applied(line, "loop split after the cells the line %d loop's shift sends: that send moved up into the gap, this loop's own shift recv down into it (saves about one start-up per loop in steady state, delays the pipeline send by one; a chain of %d loops at P = %d)",
			next.loop.Pos().Line, len(gs), nproc)
	}
	if !moved {
		return i + 5*len(gs), true
	}

	list := append(make([]ast.Stmt, 0, len(v.list)+len(gs)), v.list[:i]...) // a split loop adds one
	for l := range gs {
		g := &gs[l]
		sent := l > 0 && gs[l-1].early // this loop's S went out in the loop before
		if !sent {
			list = append(list, g.shift)
		}
		switch {
		case !g.early && sent && g.sinkable() == "":
			list = append(list, g.pipeIn, g.shiftIn, g.loop, g.pipe)
		case !g.early:
			list = append(list, g.shiftIn, g.pipeIn, g.loop, g.pipe)
		default:
			h := gs[l+1].s.Sec[0].Hi
			head, tail := *g.loop, *g.loop
			head.Hi = &ast.FuncCall{Name: "MIN", Args: []ast.Expr{g.loop.Hi, h}}
			tail.Lo = &ast.FuncCall{Name: "MAX", Args: []ast.Expr{g.loop.Lo, &ast.Binary{Op: ast.OpAdd, X: h, Y: &ast.IntLit{Value: 1}}}}
			list = append(list, g.pipeIn, &head, gs[l+1].shift, g.shiftIn, &tail, g.pipe)
		}
	}
	next := len(list)
	v.list = append(list, v.list[i+5*len(gs):]...)
	return next, true
}

// chainAt appends to gs the pipelined loops of one array from position j
// on, as long as they follow each other.
func chainAt(list []ast.Stmt, j int, gs []group) []group {
	for ; ; j += 5 {
		g, ok := pipeGroup(list, j)
		if !ok || len(gs) > 0 && g.r.Array != gs[0].r.Array {
			return gs
		}
		gs = append(gs, g)
	}
}

// group is one pipelined loop of a chain: its five statements as listed
// (guards included), what they send and receive, and what its body
// references of the array.
type group struct {
	shift, shiftIn, pipeIn, pipe ast.Stmt     // S, R, Q, P
	s, p, r, q                   *ast.Message // S and P send, R and Q recv
	loop                         *ast.Do
	reach                        int    // the largest c of a reference x(i+c) in the body
	why                          string // why the body may not be split, or ""
	early                        bool   // split, with the next loop's S in the gap
}

// pipeGroup matches the five statements at j: a send, two recvs, a loop
// and a send of one array in one-dimensional sections, the loop writing
// x(i) and reading some x(i-c) — a recurrence, so the halo split never
// applies to it.
func pipeGroup(list []ast.Stmt, j int) (g group, ok bool) {
	if j+4 >= len(list) {
		return g, false
	}
	_, g.s, _ = asComm(list[j])
	_, _, g.r = asComm(list[j+1])
	_, _, g.q = asComm(list[j+2])
	g.loop, _ = list[j+3].(*ast.Do)
	_, g.p, _ = asComm(list[j+4])
	if g.s == nil || g.r == nil || g.q == nil || g.loop == nil || g.p == nil {
		return g, false
	}
	x := g.s.Array
	for _, sec := range [][]ast.SecDim{g.s.Sec, g.r.Sec, g.q.Sec, g.p.Sec} {
		if len(sec) != 1 {
			return g, false
		}
	}
	if g.r.Array != x || g.q.Array != x || g.p.Array != x {
		return g, false
	}
	g.shift, g.shiftIn, g.pipeIn, g.pipe = list[j], list[j+1], list[j+2], list[j+4]
	return g, g.scan(x)
}

// scan reads the loop body: it sets reach and why, and reports whether
// the body writes x(i) and reads x(i-c) for some c > 0.
func (g *group) scan(x string) (recurrence bool) {
	l := g.loop
	writes := false
	if l.Norm(nil).Step != 1 {
		g.why = "loop has non-unit step"
	}
	ref := func(e ast.Expr) {
		r, ok := e.(*ast.ArrayRef)
		if !ok || r.Name != x {
			return
		}
		c, ok := 0, len(r.Subs) == 1
		if ok {
			c, ok = offsetFrom(r.Subs[0], l.Var)
		}
		switch {
		case !ok:
			if g.why == "" {
				g.why = "a subscript of " + x + " is not " + l.Var + " plus a constant"
			}
		case c < 0:
			recurrence = true
		case c > g.reach:
			g.reach = c
		}
	}
	for _, st := range l.Body {
		a, ok := st.(*ast.Assign)
		if !ok {
			g.why = "loop body holds a statement other than an assignment"
			continue
		}
		if r, ok := a.Lhs.(*ast.ArrayRef); ok && r.Name == x {
			if len(r.Subs) == 1 && isIdent(r.Subs[0], l.Var) {
				writes = true
			} else if g.why == "" {
				g.why = "loop writes " + x + " away from " + x + "(" + l.Var + ")"
			}
		}
		ast.WalkExpr(a.Lhs, ref)
		ast.WalkExpr(a.Rhs, ref)
	}
	return recurrence && writes
}

// movable says why the next loop's S may not move up into this loop,
// nor this loop's R down, or "" when both may.
func (g *group) movable(next *group) string {
	if !otherLink(next.s.Peer, g.p.Peer) {
		return "cannot prove the next loop's shift and this loop's pipeline send leave on different links"
	}
	if why := g.sinkable(); why != "" {
		return why
	}
	if !atLeast(next.s.Sec[0].Hi, g.r.Sec[0].Lo, g.reach+1) {
		return "cannot prove the iterations up to the next loop's shift read nothing this loop's shift receives (a block narrower than the two shifts?)"
	}
	if why := g.reads(next, g.loop.Var); why != "" {
		return why
	}
	for _, st := range g.loop.Body {
		if id, ok := st.(*ast.Assign).Lhs.(*ast.Ident); ok {
			if why := g.reads(next, id.Name); why != "" {
				return why
			}
		}
	}
	return ""
}

// sinkable says why R may not move below Q, or "".
func (g *group) sinkable() string {
	in, pipe := g.r.Sec[0], g.q.Sec[0]
	switch {
	case !otherLink(g.r.Peer, g.q.Peer):
		return "cannot prove this loop's shift and pipeline recvs arrive on different links"
	case !atLeast(pipe.Hi, in.Lo, 1) && !atLeast(in.Hi, pipe.Lo, 1):
		return "cannot prove this loop's shift and pipeline recvs deliver different cells"
	}
	return ""
}

// reads says which of the loop's bounds and the statements that move
// reads name, which the loop assigns, or "".
func (g *group) reads(next *group, name string) string {
	switch {
	case mentions(g.loop.Lo, name) || mentions(g.loop.Hi, name):
		return "the loop's bounds read " + name + ", which the loop assigns"
	case commMentions(next.shift, name):
		return "the next loop's shift reads " + name + ", which this loop assigns"
	case commMentions(g.shiftIn, name):
		return "this loop's shift recv reads " + name + ", which the loop assigns"
	}
	return ""
}

// commMentions reports whether a (guarded) send or recv reads name.
func commMentions(s ast.Stmt, name string) bool {
	guard, m, rcv := asComm(s)
	if m == nil {
		m = rcv
	}
	found := guard != nil && mentions(guard.Cond, name) || mentions(m.Peer, name)
	for _, d := range m.Sec {
		found = found || mentions(d.Lo, name) || mentions(d.Hi, name)
	}
	return found
}

// otherLink reports whether two partners are provably different
// processors: my$p plus two different constants.
func otherLink(a, b ast.Expr) bool {
	ca, okA := offsetFrom(a, "my$p")
	cb, okB := offsetFrom(b, "my$p")
	return okA && okB && ca != cb
}

// lastProc reads P−1 off a guard my$p .LT. P−1.
func lastProc(s ast.Stmt) (int, bool) {
	guard, _, _ := asComm(s)
	if guard == nil {
		return 0, false
	}
	if c, ok := guard.Cond.(*ast.Binary); ok && c.Op == ast.OpLT && isIdent(c.X, "my$p") {
		if k, ok := c.Y.(*ast.IntLit); ok {
			return k.Value, true
		}
	}
	return 0, false
}
