package sched

import "fortd/internal/ast"

// asComm classifies a statement as one element of a halo-exchange run:
// a send or recv, bare or wrapped in a single-statement guard.
func asComm(s ast.Stmt) (guard *ast.If, send, recv *ast.Message) {
	inner := s
	if g, ok := s.(*ast.If); ok {
		if len(g.Then) != 1 || len(g.Else) != 0 {
			return nil, nil, nil
		}
		guard, inner = g, g.Then[0]
	}
	if m, ok := inner.(*ast.Message); ok {
		switch m.Op {
		case ast.MsgSend:
			return guard, m, nil
		case ast.MsgRecv:
			return guard, nil, m
		}
	}
	return nil, nil, nil
}

// splitHalo matches a maximal run of (possibly guarded) send/recv
// statements at i followed by a Do loop. On a proven-safe match each
// recv becomes a postrecv in place (guard kept), the loop runs its
// interior iterations — the ones that provably touch no halo cell —
// before the waitrecv statements, and the peeled boundary iterations
// run after them: the wait then stalls only for the part of the message
// flight the interior compute failed to cover. A match that fails a
// proof gets a Missed remark per recv and is passed over whole, so the
// run is considered exactly once.
func splitHalo(v *view, i int) (int, bool) {
	j := i
	var recvs []*ast.Message
	for ; j < len(v.list); j++ {
		_, snd, rcv := asComm(v.list[j])
		if snd == nil && rcv == nil {
			break
		}
		if rcv != nil {
			recvs = append(recvs, rcv)
		}
	}
	if len(recvs) == 0 || j >= len(v.list) {
		return i, false
	}
	loop, ok := v.list[j].(*ast.Do)
	if !ok {
		return i, false
	}
	miss := func(format string, args ...interface{}) (int, bool) {
		for _, rcv := range recvs {
			v.missed(rcv.Pos().Line, format, args...)
		}
		return j + 1, true
	}

	if loop.Norm(nil).Step != 1 {
		return miss("following loop has non-unit step")
	}
	// the peel dimension is the one every recv's section is thin in
	// (width provably <= 1): the ghost row/column of a halo exchange
	peelDim := -1
	for _, rcv := range recvs {
		d := thinDim(rcv.Sec)
		if d < 0 {
			return miss("halo section has no provably-thin dimension")
		}
		if peelDim >= 0 && d != peelDim {
			return miss("recvs disagree on the halo dimension")
		}
		peelDim = d
	}
	assigns, what := loopAssigns(v, loop.Body)
	if what != "" {
		return miss("loop body contains %s", what)
	}

	// iteration independence: every array written in the loop must be
	// referenced (read or written) only at the loop variable itself in
	// some fixed dimension, so iteration v's footprint on written data
	// is confined to slice v and the peeled iterations may run after
	// the interior ones
	refs := map[string][]*ast.ArrayRef{}
	for _, a := range assigns {
		for _, e := range ast.StmtExprs(a) {
			ast.WalkExpr(e, func(e ast.Expr) {
				if r, ok := e.(*ast.ArrayRef); ok {
					refs[r.Name] = append(refs[r.Name], r)
				}
			})
		}
	}
	for _, a := range assigns {
		if _, ok := a.Lhs.(*ast.ArrayRef); !ok {
			return miss("loop writes scalar %s (combining order would change)", a.Lhs)
		}
	}
	for _, a := range assigns {
		name := a.Lhs.(*ast.ArrayRef).Name
		if !hasIndependentDim(refs[name], loop.Var) {
			return miss("array %s is not accessed uniformly at %s in any dimension", name, loop.Var)
		}
	}

	// peel bounds: how far the loop reads each received array away from
	// the loop variable in the peel dimension
	peelLo, peelHi := 0, 0
	for _, rcv := range recvs {
		for _, r := range refs[rcv.Array] {
			if len(r.Subs) <= peelDim {
				return miss("reference %s has no subscript in the halo dimension", r.Name)
			}
			c, ok := offsetFrom(r.Subs[peelDim], loop.Var)
			if !ok {
				return miss("subscript %s of %s is not %s plus a constant", r.Subs[peelDim], r.Name, loop.Var)
			}
			if -c > peelLo {
				peelLo = -c
			}
			if c > peelHi {
				peelHi = c
			}
		}
	}

	// the received cells must lie outside the loop's own index range in
	// the peel dimension: interior iterations then provably read no
	// halo cell (their reads stay within [lo, hi] by the peel bounds)
	for _, rcv := range recvs {
		sec := rcv.Sec[peelDim]
		if !atLeast(sec.Hi, loop.Lo, 1) && !atLeast(loop.Hi, sec.Lo, 1) {
			return miss("cannot prove halo %s(%s:%s) outside loop range %s:%s",
				rcv.Array, sec.Lo, sec.Hi, loop.Lo, loop.Hi)
		}
	}

	// all proofs hold: posts in place of the recvs, the interior loop,
	// the waits, the peels
	lo, hi := loop.Lo, loop.Hi
	var peels []ast.Stmt
	if peelLo > 0 {
		low := ast.CloneStmt(loop).(*ast.Do)
		low.Lo = ast.CloneExpr(lo)
		low.Hi = &ast.FuncCall{Name: "MIN", Args: []ast.Expr{ast.CloneExpr(hi), addConst(lo, peelLo-1)}}
		peels = append(peels, low)
	}
	if peelHi > 0 {
		high := ast.CloneStmt(loop).(*ast.Do)
		high.Lo = &ast.FuncCall{Name: "MAX", Args: []ast.Expr{addConst(lo, peelLo), addConst(hi, -(peelHi - 1))}}
		high.Hi = ast.CloneExpr(hi)
		peels = append(peels, high)
	}
	interior := *loop
	interior.Lo, interior.Hi = addConst(lo, peelLo), addConst(hi, -peelHi)
	var repl, waits []ast.Stmt
	for _, s := range v.list[i:j] {
		guard, _, rcv := asComm(s)
		if rcv == nil {
			repl = append(repl, s)
			continue
		}
		// the wait is unguarded: a post whose guard was false leaves
		// nothing registered under the tag, so its wait is a no-op
		post, wait := v.split(rcv)
		var placed ast.Stmt = post
		if guard != nil {
			g := *guard
			g.Then = []ast.Stmt{post}
			placed = &g
		}
		repl = append(repl, placed)
		waits = append(waits, wait)
		v.applied(rcv.Pos().Line, "recv posted early; wait sunk below interior %s-loop (peel %d low, %d high)",
			loop.Var, peelLo, peelHi)
	}
	repl = append(append(append(repl, &interior), waits...), peels...)
	v.replace(i, j+1-i, repl...)
	return i + len(repl), true
}

// loopAssigns flattens a candidate loop body into its assignments, or
// names the kind of statement in it whose reordering effects the pass
// cannot reason about (calls, control flow, communication).
func loopAssigns(v *view, body []ast.Stmt) (assigns []*ast.Assign, what string) {
	for _, s := range body {
		switch st := s.(type) {
		case *ast.Assign:
			assigns = append(assigns, st)
		case *ast.Do:
			inner, what := loopAssigns(v, st.Body)
			if what != "" {
				return nil, what
			}
			assigns = append(assigns, inner...)
		default:
			return nil, v.label(s)
		}
	}
	return assigns, ""
}

// hasIndependentDim reports whether some dimension of every reference
// in refs is subscripted by exactly the identifier v.
func hasIndependentDim(refs []*ast.ArrayRef, v string) bool {
	if len(refs) == 0 {
		return false
	}
	rank := len(refs[0].Subs)
dims:
	for d := 0; d < rank; d++ {
		for _, r := range refs {
			if len(r.Subs) != rank || !isIdent(r.Subs[d], v) {
				continue dims
			}
		}
		return true
	}
	return false
}

// thinDim returns the unique dimension of sec whose width is provably
// at most one element (Hi <= Lo), or -1.
func thinDim(sec []ast.SecDim) int {
	dim := -1
	for d, s := range sec {
		if atLeast(s.Hi, s.Lo, 0) {
			if dim >= 0 {
				return -1 // ambiguous
			}
			dim = d
		}
	}
	return dim
}
