// Package sched is the computation/communication overlap pass: a
// post-codegen schedule transformation that converts blocking
// communication in the generated SPMD program to post-early/wait-late
// form, in the shape of the paper's §7 pipelining discussion (and of
// PSyclone's movable HaloExchange schedule nodes).
//
// Two transformations run over every unit body:
//
//   - Halo split: a run of (possibly guarded) send/recv statements
//     followed by an eligible compute loop is rewritten so each recv
//     becomes a PostRecv in place (guard kept), the loop runs its
//     interior iterations — the ones that provably touch no halo cell
//     — before the WaitRecv statements, and the peeled boundary
//     iterations run after them. The wait then stalls only for the
//     part of the message flight the interior compute failed to cover.
//
//   - Broadcast hoist: a blocking Broadcast is split into a PostBcast
//     hoisted above the longest safe suffix of its predecessors
//     (statements that provably neither communicate nor write anything
//     the broadcast reads) and a WaitBcast in the original position,
//     so the root's tree sends are in flight while every processor
//     runs the intervening computation.
//
// Every considered site gets an Applied or Missed explain remark under
// pass "sched". The pass preserves observable semantics exactly: peeled
// iterations re-run after the waits in a loop whose iterations are
// proven independent, so each array element is computed by the same
// expression reading the same values as the blocking schedule.
package sched

import (
	"fmt"

	"fortd/internal/ast"
	"fortd/internal/depend"
	"fortd/internal/explain"
)

// Apply rewrites prog's unit bodies in place and returns the number of
// sites transformed (split recvs plus hoisted broadcasts). Tags
// assigned to post/wait pairs are unique program-wide, so the rewrite
// is deterministic and pairs cannot collide across procedures.
func Apply(prog *ast.Program, ec *explain.Collector) int {
	p := &pass{prog: prog, ec: ec}
	for _, u := range prog.Units {
		u.Body = p.rewriteBody(u, u.Body)
	}
	return p.applied
}

type pass struct {
	prog    *ast.Program
	ec      *explain.Collector
	tag     int
	applied int
}

func (p *pass) nextTag() int { p.tag++; return p.tag }

// rewriteBody transforms one statement list, recursing into nested
// control flow first so halo exchanges inside a time-step loop are
// seen at their own nesting level.
func (p *pass) rewriteBody(u *ast.Procedure, body []ast.Stmt) []ast.Stmt {
	body = p.dropRedundantBcasts(u, body)
	var pre []ast.Stmt
	for _, s := range body {
		switch st := s.(type) {
		case *ast.Do:
			// redundancy elimination must see the loop body before the
			// lookahead turns its leading broadcast into a wait, and the
			// lookahead runs on the untransformed shape (it matches the
			// codegen output) and may emit a prologue post that belongs
			// just before the loop
			st.Body = p.dropRedundantBcasts(u, st.Body)
			pre = append(pre, p.tryLookahead(u, st)...)
			st.Body = p.rewriteBody(u, st.Body)
		case *ast.If:
			st.Then = p.rewriteBody(u, st.Then)
			st.Else = p.rewriteBody(u, st.Else)
		}
		pre = append(pre, s)
	}
	body = pre
	var out []ast.Stmt
	for i := 0; i < len(body); {
		if n, repl, ok := p.tryHaloSplit(u, body, i); ok {
			out = append(out, repl...)
			i += n
			continue
		}
		if bc, ok := body[i].(*ast.Broadcast); ok {
			out = p.tryBcastHoist(u, out, bc)
			i++
			continue
		}
		out = append(out, body[i])
		i++
	}
	return out
}

// ---------------------------------------------------------------------------
// Halo split

// asComm classifies a statement as one element of a halo-exchange run:
// a Send or Recv, bare or wrapped in a single-statement guard.
func asComm(s ast.Stmt) (guard *ast.If, send *ast.Send, recv *ast.Recv) {
	inner := s
	if g, ok := s.(*ast.If); ok {
		if len(g.Then) != 1 || len(g.Else) != 0 {
			return nil, nil, nil
		}
		guard, inner = g, g.Then[0]
	}
	switch st := inner.(type) {
	case *ast.Send:
		return guard, st, nil
	case *ast.Recv:
		return guard, nil, st
	}
	return nil, nil, nil
}

// tryHaloSplit matches a maximal run of send/recv statements at
// body[i] followed by a Do loop. On a proven-safe match it returns the
// post-early/wait-late replacement; on a match that fails a safety
// condition it emits Missed remarks and returns the original
// statements unchanged (consumed all the same, so the run is
// considered exactly once).
func (p *pass) tryHaloSplit(u *ast.Procedure, body []ast.Stmt, i int) (int, []ast.Stmt, bool) {
	j := i
	nrecv := 0
	for j < len(body) {
		_, snd, rcv := asComm(body[j])
		if snd == nil && rcv == nil {
			break
		}
		if rcv != nil {
			nrecv++
		}
		j++
	}
	if j == i || nrecv == 0 || j >= len(body) {
		return 0, nil, false
	}
	loop, ok := body[j].(*ast.Do)
	if !ok {
		return 0, nil, false
	}
	run := body[i : j+1]
	consumed := j + 1 - i

	miss := func(reason string) (int, []ast.Stmt, bool) {
		for _, s := range body[i:j] {
			if _, _, rcv := asComm(s); rcv != nil {
				p.ec.Addf(explain.Missed, "sched", u.Name, rcv.Pos().Line,
					"overlap-halo", "recv not split: %s", reason)
			}
		}
		return consumed, run, true
	}

	if loop.Step != nil && !isIntLit(loop.Step, 1) {
		return miss("following loop has non-unit step")
	}
	// the peel dimension is the one every recv's section is thin in
	// (width provably <= 1): the ghost row/column of a halo exchange
	peelDim := -1
	var recvNames = map[string]bool{}
	for _, s := range body[i:j] {
		_, _, rcv := asComm(s)
		if rcv == nil {
			continue
		}
		recvNames[rcv.Array] = true
		d := thinDim(rcv.Sec)
		if d < 0 {
			return miss("halo section has no provably-thin dimension")
		}
		if peelDim >= 0 && d != peelDim {
			return miss("recvs disagree on the halo dimension")
		}
		peelDim = d
	}
	assigns, reason := collectLoopAssigns(loop.Body)
	if reason != "" {
		return miss(reason)
	}

	// iteration independence: every array written in the loop must be
	// referenced (read or written) only at the loop variable itself in
	// some fixed dimension, so iteration v's footprint on written data
	// is confined to slice v and the peeled iterations may run after
	// the interior ones
	for _, a := range assigns {
		if _, ok := a.Lhs.(*ast.ArrayRef); !ok {
			return miss(fmt.Sprintf("loop writes scalar %s (combining order would change)", a.Lhs))
		}
	}
	refs := collectArrayRefs(assigns)
	// in statement order, so that the remark names the same array every
	// time when more than one fails
	for _, a := range assigns {
		name := a.Lhs.(*ast.ArrayRef).Name
		if !hasIndependentDim(refs[name], loop.Var) {
			return miss(fmt.Sprintf("array %s is not accessed uniformly at %s in any dimension", name, loop.Var))
		}
	}

	// peel bounds: how far the loop reads each received array away from
	// the loop variable in the peel dimension
	peelLo, peelHi := 0, 0
	for name := range recvNames {
		for _, r := range refs[name] {
			if len(r.Subs) <= peelDim {
				return miss(fmt.Sprintf("reference %s has no subscript in the halo dimension", r.Name))
			}
			c, ok := offsetFrom(r.Subs[peelDim], loop.Var)
			if !ok {
				return miss(fmt.Sprintf("subscript %s of %s is not %s plus a constant", r.Subs[peelDim], r.Name, loop.Var))
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
	for _, s := range body[i:j] {
		_, _, rcv := asComm(s)
		if rcv == nil {
			continue
		}
		sec := rcv.Sec[peelDim]
		if !atLeast(sec.Hi, loop.Lo, 1) && !atLeast(loop.Hi, sec.Lo, 1) {
			return miss(fmt.Sprintf("cannot prove halo %s(%s:%s) outside loop range %s:%s",
				rcv.Array, sec.Lo, sec.Hi, loop.Lo, loop.Hi))
		}
	}

	// all proofs hold: build the replacement
	lo, hi := loop.Lo, loop.Hi
	var lowPeel, highPeel *ast.Do
	if peelLo > 0 {
		lowPeel = ast.CloneStmt(loop).(*ast.Do)
		lowPeel.Lo = ast.CloneExpr(lo)
		lowPeel.Hi = &ast.FuncCall{Name: "MIN", Args: []ast.Expr{ast.CloneExpr(hi), addConst(lo, peelLo-1)}}
	}
	if peelHi > 0 {
		highPeel = ast.CloneStmt(loop).(*ast.Do)
		highPeel.Lo = &ast.FuncCall{Name: "MAX", Args: []ast.Expr{addConst(lo, peelLo), addConst(hi, -(peelHi - 1))}}
		highPeel.Hi = ast.CloneExpr(hi)
	}

	var repl []ast.Stmt
	var waits []ast.Stmt
	for _, s := range run[:len(run)-1] {
		guard, _, rcv := asComm(s)
		if rcv == nil {
			repl = append(repl, s)
			continue
		}
		tag := p.nextTag()
		post := &ast.PostRecv{Array: rcv.Array, Sec: rcv.Sec, Src: rcv.Src, Tag: tag}
		post.Position = rcv.Pos()
		if guard != nil {
			guard.Then = []ast.Stmt{post}
			repl = append(repl, guard)
		} else {
			repl = append(repl, post)
		}
		// the wait is unguarded: a post whose guard was false leaves
		// nothing registered under the tag, so its wait is a no-op
		wait := &ast.WaitRecv{Array: rcv.Array, Tag: tag}
		wait.Position = rcv.Pos()
		waits = append(waits, wait)
		p.applied++
		p.ec.Addf(explain.Applied, "sched", u.Name, rcv.Pos().Line,
			"overlap-halo", "recv posted early; wait sunk below interior %s-loop (peel %d low, %d high)",
			loop.Var, peelLo, peelHi)
	}
	loop.Lo = addConst(lo, peelLo)
	loop.Hi = addConst(hi, -peelHi)
	repl = append(repl, loop)
	repl = append(repl, waits...)
	if lowPeel != nil {
		repl = append(repl, lowPeel)
	}
	if highPeel != nil {
		repl = append(repl, highPeel)
	}
	return consumed, repl, true
}

// collectLoopAssigns flattens a candidate loop body into its
// assignments, rejecting any statement whose reordering effects the
// pass cannot reason about (calls, control flow, communication).
func collectLoopAssigns(body []ast.Stmt) ([]*ast.Assign, string) {
	var out []*ast.Assign
	for _, s := range body {
		switch st := s.(type) {
		case *ast.Assign:
			out = append(out, st)
		case *ast.Do:
			inner, reason := collectLoopAssigns(st.Body)
			if reason != "" {
				return nil, reason
			}
			out = append(out, inner...)
		default:
			return nil, fmt.Sprintf("loop body contains %s", stmtLabel(s))
		}
	}
	return out, ""
}

// collectArrayRefs indexes every array reference in the assignments
// (both sides, including subscript expressions) by array name.
func collectArrayRefs(assigns []*ast.Assign) map[string][]*ast.ArrayRef {
	refs := map[string][]*ast.ArrayRef{}
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.ArrayRef:
			refs[x.Name] = append(refs[x.Name], x)
			for _, sub := range x.Subs {
				walk(sub)
			}
		case *ast.FuncCall:
			for _, a := range x.Args {
				walk(a)
			}
		case *ast.Binary:
			walk(x.X)
			walk(x.Y)
		case *ast.Unary:
			walk(x.X)
		}
	}
	for _, a := range assigns {
		walk(a.Lhs)
		walk(a.Rhs)
	}
	return refs
}

// hasIndependentDim reports whether some dimension of every reference
// in refs is subscripted by exactly the identifier v.
func hasIndependentDim(refs []*ast.ArrayRef, v string) bool {
	if len(refs) == 0 {
		return false
	}
	rank := len(refs[0].Subs)
	for d := 0; d < rank; d++ {
		all := true
		for _, r := range refs {
			if len(r.Subs) != rank || !isIdent(r.Subs[d], v) {
				all = false
				break
			}
		}
		if all {
			return true
		}
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

// ---------------------------------------------------------------------------
// Broadcast hoist

// tryBcastHoist splits bc into a PostBcast placed above the longest
// safe suffix of out and a WaitBcast in bc's position, returning the
// rewritten list. A broadcast with no predecessor at this level is
// left blocking without a remark (there is nothing to overlap); one
// whose immediate predecessor is unsafe gets a Missed remark.
func (p *pass) tryBcastHoist(u *ast.Procedure, out []ast.Stmt, bc *ast.Broadcast) []ast.Stmt {
	if len(out) == 0 {
		return append(out, bc)
	}
	guarded := protectedNames(bc)
	hoist := len(out)
	var blockedBy string
	for j := len(out) - 1; j >= 0; j-- {
		ok, reason := p.safePredecessor(out[j], bc.Array, guarded)
		if !ok {
			blockedBy = reason
			break
		}
		hoist = j
	}
	if hoist == len(out) {
		p.ec.Addf(explain.Missed, "sched", u.Name, bc.Pos().Line,
			"overlap-bcast", "broadcast not posted early: %s", blockedBy)
		return append(out, bc)
	}
	tag := p.nextTag()
	post := &ast.PostBcast{Array: bc.Array, Sec: bc.Sec, Root: bc.Root, Tag: tag}
	post.Position = bc.Pos()
	wait := &ast.WaitBcast{Array: bc.Array, Tag: tag}
	wait.Position = bc.Pos()
	rewritten := append([]ast.Stmt{}, out[:hoist]...)
	rewritten = append(rewritten, post)
	rewritten = append(rewritten, out[hoist:]...)
	rewritten = append(rewritten, wait)
	p.applied++
	p.ec.Addf(explain.Applied, "sched", u.Name, bc.Pos().Line,
		"overlap-bcast", "broadcast posted %d statement(s) early; wait sunk to original position", len(out)-hoist)
	return rewritten
}

// protectedNames collects every identifier and array the broadcast's
// section, root expression and payload depend on: hoisting the post
// above a statement that writes any of them would change what the
// root captures.
func protectedNames(bc *ast.Broadcast) map[string]bool {
	names := map[string]bool{bc.Array: true}
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.Ident:
			names[x.Name] = true
		case *ast.ArrayRef:
			names[x.Name] = true
			for _, s := range x.Subs {
				walk(s)
			}
		case *ast.FuncCall:
			for _, a := range x.Args {
				walk(a)
			}
		case *ast.Binary:
			walk(x.X)
			walk(x.Y)
		case *ast.Unary:
			walk(x.X)
		}
	}
	walk(bc.Root)
	for _, d := range bc.Sec {
		walk(d.Lo)
		walk(d.Hi)
	}
	return names
}

// safePredecessor reports whether the post half of a broadcast of
// array arr may move above s: s must not communicate (per-link FIFO
// order must be preserved) and must not write arr or any name the
// broadcast's expressions read.
func (p *pass) safePredecessor(s ast.Stmt, arr string, guarded map[string]bool) (bool, string) {
	switch st := s.(type) {
	case *ast.Assign:
		switch lhs := st.Lhs.(type) {
		case *ast.Ident:
			if guarded[lhs.Name] {
				return false, fmt.Sprintf("assignment writes %s, which the broadcast reads", lhs.Name)
			}
			return true, ""
		case *ast.ArrayRef:
			if guarded[lhs.Name] {
				return false, fmt.Sprintf("assignment writes array %s", lhs.Name)
			}
			return true, ""
		}
		return false, "assignment with unrecognized target"
	case *ast.Call:
		callee := p.prog.Proc(st.Name)
		if callee == nil {
			return false, fmt.Sprintf("call to unknown procedure %s", st.Name)
		}
		if hasComm(p.prog, callee, map[string]bool{}) {
			return false, fmt.Sprintf("call %s contains communication", st.Name)
		}
		for i, a := range st.Args {
			id, ok := a.(*ast.Ident)
			if !ok {
				// non-identifier actuals pass elements by reference; the
				// callee could write through them
				if exprMentions(a, guarded) {
					return false, fmt.Sprintf("call %s receives an expression over protected names", st.Name)
				}
				continue
			}
			if !guarded[id.Name] {
				continue
			}
			if i < len(callee.Params) && writesName(p.prog, callee, callee.Params[i], map[string]bool{}) {
				return false, fmt.Sprintf("call %s may write %s", st.Name, id.Name)
			}
		}
		return true, ""
	default:
		return false, fmt.Sprintf("cannot move past %s", stmtLabel(s))
	}
}

// hasComm reports whether proc's body (transitively through calls)
// contains any communication statement.
func hasComm(prog *ast.Program, proc *ast.Procedure, visited map[string]bool) bool {
	if visited[proc.Name] {
		return false
	}
	visited[proc.Name] = true
	found := false
	ast.WalkStmts(proc.Body, func(s ast.Stmt) bool {
		switch st := s.(type) {
		case *ast.Send, *ast.Recv, *ast.Broadcast, *ast.AllGather,
			*ast.GlobalReduce, *ast.Remap,
			*ast.PostRecv, *ast.WaitRecv, *ast.PostBcast, *ast.WaitBcast:
			found = true
		case *ast.Call:
			callee := prog.Proc(st.Name)
			if callee == nil || hasComm(prog, callee, visited) {
				found = true
			}
		}
		return !found
	})
	return found
}

// writesName reports whether proc (transitively) may assign to the
// variable or array named name, following it through call arguments.
func writesName(prog *ast.Program, proc *ast.Procedure, name string, visited map[string]bool) bool {
	key := proc.Name + "\x00" + name
	if visited[key] {
		return false
	}
	visited[key] = true
	found := false
	ast.WalkStmts(proc.Body, func(s ast.Stmt) bool {
		switch st := s.(type) {
		case *ast.Assign:
			switch lhs := st.Lhs.(type) {
			case *ast.Ident:
				if lhs.Name == name {
					found = true
				}
			case *ast.ArrayRef:
				if lhs.Name == name {
					found = true
				}
			}
		case *ast.Call:
			callee := prog.Proc(st.Name)
			if callee == nil {
				found = true
				break
			}
			for i, a := range st.Args {
				if id, ok := a.(*ast.Ident); ok && id.Name == name {
					if i < len(callee.Params) && writesName(prog, callee, callee.Params[i], visited) {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

// exprMentions reports whether e references any of the given names.
func exprMentions(e ast.Expr, names map[string]bool) bool {
	found := false
	var walk func(ast.Expr)
	walk = func(e ast.Expr) {
		if found {
			return
		}
		switch x := e.(type) {
		case *ast.Ident:
			if names[x.Name] {
				found = true
			}
		case *ast.ArrayRef:
			if names[x.Name] {
				found = true
			}
			for _, s := range x.Subs {
				walk(s)
			}
		case *ast.FuncCall:
			for _, a := range x.Args {
				walk(a)
			}
		case *ast.Binary:
			walk(x.X)
			walk(x.Y)
		case *ast.Unary:
			walk(x.X)
		}
	}
	walk(e)
	return found
}

// ---------------------------------------------------------------------------
// Redundant-broadcast elimination

// dropRedundantBcasts deletes a broadcast whose data was already
// delivered by an earlier broadcast in the same statement list: same
// array, same root expression, section contained in the earlier one,
// and nothing in between that writes the array, writes a variable the
// broadcast's expressions read, or communicates. Such a broadcast is a
// pure re-synchronization — every processor already holds the root's
// values — and deleting it removes both the root's injection occupancy
// and the receivers' stall. The codegen layer places one broadcast per
// reference group, so a column broadcast followed by a broadcast of
// one of its elements (dgefa's pivot a(k,k) after the pivot column
// a(1:n,k)) is a common shape.
func (p *pass) dropRedundantBcasts(u *ast.Procedure, body []ast.Stmt) []ast.Stmt {
	out := body[:0]
	for _, s := range body {
		b2, ok := s.(*ast.Broadcast)
		if !ok {
			out = append(out, s)
			continue
		}
		covered := false
		guarded := protectedNames(b2)
		for j := len(out) - 1; j >= 0; j-- {
			b1, ok := out[j].(*ast.Broadcast)
			if ok && b1.Array == b2.Array && ast.ExprEqual(b1.Root, b2.Root) &&
				p.secContained(u, b1, b2) {
				covered = true
				p.applied++
				p.ec.Addf(explain.Applied, "sched", u.Name, b2.Pos().Line,
					"overlap-redundant", "broadcast removed: section already delivered by the line %d broadcast from the same root, with no intervening writes", b1.Pos().Line)
				break
			}
			if ok, _ := p.safePredecessor(out[j], b2.Array, guarded); !ok {
				break
			}
		}
		if !covered {
			out = append(out, s)
		}
	}
	return out
}

// secContained reports whether b2's section is provably inside b1's,
// dimension by dimension: equal bounds, a constant-offset containment,
// or b1 spanning the array's whole declared extent (any in-bounds
// subscript is then contained).
func (p *pass) secContained(u *ast.Procedure, b1, b2 *ast.Broadcast) bool {
	if len(b1.Sec) != len(b2.Sec) {
		return false
	}
	sym := u.Symbols.Lookup(b1.Array)
	for d := range b1.Sec {
		lo1, hi1 := b1.Sec[d].Lo, b1.Sec[d].Hi
		lo2, hi2 := b2.Sec[d].Lo, b2.Sec[d].Hi
		if ast.ExprEqual(lo1, lo2) && ast.ExprEqual(hi1, hi2) {
			continue
		}
		if atLeast(lo1, lo2, 0) && atLeast(hi2, hi1, 0) {
			continue
		}
		if sym != nil && d < len(sym.Dims) {
			declLo := sym.Dims[d].Lo
			if declLo == nil {
				declLo = &ast.IntLit{Value: 1}
			}
			if ast.ExprEqual(lo1, declLo) && ast.ExprEqual(hi1, sym.Dims[d].Hi) {
				continue
			}
		}
		return false
	}
	return true
}

// ---------------------------------------------------------------------------
// Pivot-broadcast lookahead

// tryLookahead pipelines a rotating-root pivot broadcast across the
// iterations of its enclosing loop — the classic LU lookahead. The
// matched shape is the §9 dgefa schedule the compiler generates:
//
//	do k = lo, hi
//	  broadcast a(..,k,..) from MOD(k+c1, s)     <- pivot column, rotating owner
//	  ...                                         <- factorization steps
//	  do j = first$(my$p+c2, k+1, s), n, s        <- trailing-matrix update
//	    <updates column j, reading columns j and k only>
//	  enddo
//	enddo
//
// The update loop's first owned iteration is j = k+1 — exactly the
// column the next iteration broadcasts. The rewrite peels that first
// iteration (a no-op reordering: first$ enumerates ascending), posts
// the next pivot broadcast immediately after it, and leaves the wait
// at the top of the loop body, so the broadcast is in flight during
// the whole remaining update loop instead of stalling every processor
// at the next iteration's head:
//
//	if (lo .LE. hi) postbcast a(..,lo,..) from MOD(lo+c1, s) tag T
//	do k = lo, hi
//	  waitbcast a tag T
//	  ...
//	  if (first$(my$p+c2, k+1, s) .EQ. k+1 .AND. k+1 .LE. n)
//	    <update column k+1>                       <- the peeled first iteration
//	  if (k .LT. hi) postbcast a(..,k+1,..) from MOD(k+1+c1, s) tag T
//	  do j = first$(my$p+c2, k+2, s), n, s        <- remaining columns
//	enddo
//
// The posted section holds its final pre-broadcast value at post time:
// the remaining update iterations touch only columns j >= k+2 and read
// columns j and k, never k+1 (checked by columnConfined), and the
// congruence check proves the broadcast root is the processor that
// owns — and has just updated — column k+1.
func (p *pass) tryLookahead(u *ast.Procedure, loop *ast.Do) []ast.Stmt {
	if loop.Step != nil && !isIntLit(loop.Step, 1) {
		return nil
	}
	body := loop.Body
	if len(body) < 2 {
		return nil
	}
	bc, ok := body[0].(*ast.Broadcast)
	if !ok {
		return nil
	}
	k := loop.Var
	// the pivot dimension selects exactly column k; every other section
	// bound must be independent of k so substituting k+1 shifts only it
	kname := map[string]bool{k: true}
	pivot := -1
	for d, sd := range bc.Sec {
		if isIdent(sd.Lo, k) && isIdent(sd.Hi, k) {
			if pivot >= 0 {
				return nil
			}
			pivot = d
		} else if exprMentions(sd.Lo, kname) || exprMentions(sd.Hi, kname) {
			return nil
		}
	}
	if pivot < 0 || !exprMentions(bc.Root, kname) {
		return nil
	}
	miss := func(reason string) []ast.Stmt {
		p.ec.Addf(explain.Missed, "sched", u.Name, bc.Pos().Line,
			"overlap-lookahead", "pivot broadcast not pipelined: %s", reason)
		return nil
	}
	jloop, ok := body[len(body)-1].(*ast.Do)
	if !ok {
		return miss("loop body does not end in an update loop")
	}
	// rotating owner: MOD(k + c1, s)
	rootCall, ok := bc.Root.(*ast.FuncCall)
	if !ok || rootCall.Name != "MOD" || len(rootCall.Args) != 2 {
		return miss("root is not a cyclic owner expression")
	}
	sLit, ok := rootCall.Args[1].(*ast.IntLit)
	if !ok || sLit.Value <= 0 {
		return miss("owner cycle length is not a constant")
	}
	s := sLit.Value
	rootOff, ok := offsetFrom(rootCall.Args[0], k)
	if !ok {
		return miss("root is not affine in the loop variable")
	}
	// update loop over owned columns: do j = first$(anchor, k+1, s), hi, s
	if !isIntLit(jloop.Step, s) {
		return miss("update loop step does not match the owner cycle")
	}
	first, ok := jloop.Lo.(*ast.FuncCall)
	if !ok || first.Name != "first$" || len(first.Args) != 3 {
		return miss("update loop does not iterate owned indices")
	}
	anchor, loExpr := first.Args[0], first.Args[1]
	if !isIntLit(first.Args[2], s) {
		return miss("update loop ownership modulus does not match the owner cycle")
	}
	if c, ok := offsetFrom(loExpr, k); !ok || c != 1 {
		return miss("update loop does not start at the next pivot column")
	}
	// root(k+1) must be the owner of column k+1: MOD(j+c1, s) = my$p
	// iff j ≡ my$p + c2 (mod s) requires c1 + c2 ≡ 0 (mod s)
	anchorOff, ok := offsetFrom(anchor, "my$p")
	if !ok {
		return miss("update loop anchor is not the local processor")
	}
	if ((rootOff+anchorOff)%s+s)%s != 0 {
		return miss("broadcast root is not the owner of the peeled column")
	}
	jvar := jloop.Var
	if exprMentions(jloop.Hi, map[string]bool{jvar: true}) {
		return miss("update loop bound depends on its own variable")
	}
	if ok, reason := p.columnConfined(jloop.Body, bc.Array, pivot, jvar, k, nil, map[string]bool{}); !ok {
		return miss(reason)
	}
	// peeling perturbs the update variable's fall-out value when the
	// remainder loop runs zero iterations, so it must be loop-private
	if varUsedOutside(u.Body, jloop, jvar) {
		return miss(fmt.Sprintf("update variable %s is live outside the update loop", jvar))
	}

	// all proofs hold: build the pipeline
	tag := p.nextTag()
	mkPost := func(val ast.Expr) *ast.PostBcast {
		env := map[string]ast.Expr{k: val}
		sec := make([]ast.SecDim, len(bc.Sec))
		for d, sd := range bc.Sec {
			sec[d] = ast.SecDim{Lo: exprSubst(sd.Lo, env), Hi: exprSubst(sd.Hi, env)}
		}
		post := &ast.PostBcast{Array: bc.Array, Sec: sec, Root: exprSubst(bc.Root, env), Tag: tag}
		post.Position = bc.Pos()
		return post
	}
	kIdent := ast.Expr(&ast.Ident{Name: k})

	prologue := &ast.If{
		Cond: &ast.Binary{Op: ast.OpLE, X: ast.CloneExpr(loop.Lo), Y: ast.CloneExpr(loop.Hi)},
		Then: []ast.Stmt{mkPost(ast.CloneExpr(loop.Lo))},
	}
	prologue.Position = bc.Pos()

	wait := &ast.WaitBcast{Array: bc.Array, Tag: tag}
	wait.Position = bc.Pos()

	// peeled first iteration: a single-trip copy of the update loop,
	// guarded by ownership of column k+1 and the original loop range
	peelLoop := ast.CloneStmt(jloop).(*ast.Do)
	peelLoop.Lo = ast.CloneExpr(loExpr)
	peelLoop.Hi = ast.CloneExpr(loExpr)
	inRange := &ast.If{
		Cond: &ast.Binary{Op: ast.OpLE, X: ast.CloneExpr(loExpr), Y: ast.CloneExpr(jloop.Hi)},
		Then: []ast.Stmt{peelLoop},
	}
	inRange.Position = bc.Pos()
	peel := &ast.If{
		Cond: &ast.Binary{Op: ast.OpEQ, X: ast.CloneExpr(jloop.Lo), Y: ast.CloneExpr(loExpr)},
		Then: []ast.Stmt{inRange},
	}
	peel.Position = bc.Pos()

	nextPost := &ast.If{
		Cond: &ast.Binary{Op: ast.OpLT, X: ast.CloneExpr(kIdent), Y: ast.CloneExpr(loop.Hi)},
		Then: []ast.Stmt{mkPost(addConst(kIdent, 1))},
	}
	nextPost.Position = bc.Pos()

	// remainder: the update loop restarts past the peeled column
	jloop.Lo = &ast.FuncCall{Name: "first$", Args: []ast.Expr{
		ast.CloneExpr(anchor), addConst(loExpr, 1), &ast.IntLit{Value: s}}}

	newBody := []ast.Stmt{wait}
	newBody = append(newBody, body[1:len(body)-1]...)
	newBody = append(newBody, peel, nextPost, jloop)
	loop.Body = newBody
	p.applied++
	p.ec.Addf(explain.Applied, "sched", u.Name, bc.Pos().Line,
		"overlap-lookahead", "pivot broadcast pipelined across %s iterations: column %s+1 posted right after its own update, in flight during the remaining %s-loop",
		k, k, jvar)
	return []ast.Stmt{prologue}
}

// columnConfined checks that every reference to arr in body touches
// only the pivot-dimension column j (writes and reads) or column k
// (reads): the peeled-column broadcast then provably sends final
// values, and no remaining iteration observes the posted column.
// Calls are followed one level at a time through formal-to-actual
// substitution (env maps callee names to caller expressions).
func (p *pass) columnConfined(body []ast.Stmt, arr string, pivot int, jvar, kvar string, env map[string]ast.Expr, visited map[string]bool) (bool, string) {
	checkRef := func(r *ast.ArrayRef, write bool) (bool, string) {
		if len(r.Subs) <= pivot {
			return false, fmt.Sprintf("reference %s lacks the pivot dimension", r.Name)
		}
		sub := r.Subs[pivot]
		if env != nil {
			sub = exprSubst(sub, env)
		}
		v, coef, off, ok := depend.LinearSubscript(sub, nil)
		if !ok || v == "" || off != 0 {
			return false, fmt.Sprintf("pivot subscript %s is not a bare column index", sub)
		}
		if v == jvar && coef == 1 {
			return true, ""
		}
		if !write && v == kvar && coef == 1 {
			return true, ""
		}
		if write {
			return false, fmt.Sprintf("update writes column %s of %s", sub, arr)
		}
		return false, fmt.Sprintf("update reads column %s of %s", sub, arr)
	}
	var checkExpr func(e ast.Expr) (bool, string)
	checkExpr = func(e ast.Expr) (bool, string) {
		switch x := e.(type) {
		case *ast.ArrayRef:
			name := x.Name
			if env != nil {
				if sub, ok := env[name].(*ast.ArrayRef); ok {
					name = sub.Name
				} else if sub, ok := env[name].(*ast.Ident); ok {
					name = sub.Name
				}
			}
			if name == arr {
				if ok, reason := checkRef(x, false); !ok {
					return false, reason
				}
			}
			for _, s := range x.Subs {
				if ok, reason := checkExpr(s); !ok {
					return false, reason
				}
			}
		case *ast.FuncCall:
			for _, a := range x.Args {
				if ok, reason := checkExpr(a); !ok {
					return false, reason
				}
			}
		case *ast.Binary:
			if ok, reason := checkExpr(x.X); !ok {
				return false, reason
			}
			return checkExpr(x.Y)
		case *ast.Unary:
			return checkExpr(x.X)
		}
		return true, ""
	}
	for _, st := range body {
		switch s := st.(type) {
		case *ast.Assign:
			if lhs, ok := s.Lhs.(*ast.ArrayRef); ok {
				name := lhs.Name
				if env != nil {
					if sub, ok := env[name].(*ast.ArrayRef); ok {
						name = sub.Name
					} else if sub, ok := env[name].(*ast.Ident); ok {
						name = sub.Name
					}
				}
				if name == arr {
					if ok, reason := checkRef(lhs, true); !ok {
						return false, reason
					}
				}
				for _, sub := range lhs.Subs {
					if ok, reason := checkExpr(sub); !ok {
						return false, reason
					}
				}
			}
			if ok, reason := checkExpr(s.Rhs); !ok {
				return false, reason
			}
		case *ast.Do:
			if ok, reason := p.columnConfined(s.Body, arr, pivot, jvar, kvar, env, visited); !ok {
				return false, reason
			}
		case *ast.Call:
			callee := p.prog.Proc(s.Name)
			if callee == nil {
				return false, fmt.Sprintf("update calls unknown procedure %s", s.Name)
			}
			if visited[callee.Name] {
				return false, fmt.Sprintf("update recurses through %s", s.Name)
			}
			visited[callee.Name] = true
			sub := map[string]ast.Expr{}
			for i, a := range s.Args {
				if i >= len(callee.Params) {
					break
				}
				actual := a
				if env != nil {
					actual = exprSubst(a, env)
				}
				sub[callee.Params[i]] = actual
			}
			if ok, reason := p.columnConfined(callee.Body, arr, pivot, jvar, kvar, sub, visited); !ok {
				return false, reason
			}
			delete(visited, callee.Name)
		default:
			return false, fmt.Sprintf("update loop contains %s", stmtLabel(st))
		}
	}
	return true, ""
}

// varUsedOutside reports whether any expression outside the given loop
// subtree mentions v.
func varUsedOutside(body []ast.Stmt, skip *ast.Do, v string) bool {
	names := map[string]bool{v: true}
	found := false
	var walkBody func([]ast.Stmt)
	walkBody = func(stmts []ast.Stmt) {
		for _, s := range stmts {
			if found || s == ast.Stmt(skip) {
				continue
			}
			for _, e := range ast.StmtExprs(s) {
				if exprMentions(e, names) {
					found = true
					return
				}
			}
			switch st := s.(type) {
			case *ast.Do:
				walkBody(st.Body)
			case *ast.If:
				walkBody(st.Then)
				walkBody(st.Else)
			}
		}
	}
	walkBody(body)
	return found
}

// exprSubst clones e, replacing each identifier found in env with a
// clone of its mapped expression.
func exprSubst(e ast.Expr, env map[string]ast.Expr) ast.Expr {
	switch x := e.(type) {
	case *ast.Ident:
		if r, ok := env[x.Name]; ok {
			return ast.CloneExpr(r)
		}
	case *ast.Binary:
		return &ast.Binary{Op: x.Op, X: exprSubst(x.X, env), Y: exprSubst(x.Y, env)}
	case *ast.Unary:
		return &ast.Unary{Op: x.Op, X: exprSubst(x.X, env)}
	case *ast.FuncCall:
		out := &ast.FuncCall{Name: x.Name, Args: make([]ast.Expr, len(x.Args))}
		for i, a := range x.Args {
			out.Args[i] = exprSubst(a, env)
		}
		return out
	case *ast.ArrayRef:
		out := &ast.ArrayRef{Name: x.Name, Subs: make([]ast.Expr, len(x.Subs))}
		for i, s := range x.Subs {
			out.Subs[i] = exprSubst(s, env)
		}
		return out
	}
	return ast.CloneExpr(e)
}

// ---------------------------------------------------------------------------
// Small symbolic helpers

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

func isIntLit(e ast.Expr, v int) bool {
	l, ok := e.(*ast.IntLit)
	return ok && l.Value == v
}

// offsetFrom decomposes e as v + c for the identifier v, returning c.
func offsetFrom(e ast.Expr, v string) (int, bool) {
	name, coef, c, ok := depend.LinearSubscript(e, nil)
	return c, ok && name == v && coef == 1
}

// addConst builds e + c (or e - |c|), cloning e.
func addConst(e ast.Expr, c int) ast.Expr {
	if c == 0 {
		return ast.CloneExpr(e)
	}
	if c > 0 {
		return &ast.Binary{Op: ast.OpAdd, X: ast.CloneExpr(e), Y: &ast.IntLit{Value: c}}
	}
	return &ast.Binary{Op: ast.OpSub, X: ast.CloneExpr(e), Y: &ast.IntLit{Value: -c}}
}

// atLeast reports whether b - a >= k is provable: the difference of
// affine forms is a constant >= k, unwrapping MIN/MAX on either side
// (x < MAX(p,q) holds if it holds against either arm; x < MIN(p,q)
// needs both, and symmetrically for the left side).
func atLeast(a, b ast.Expr, k int) bool {
	if fc, ok := b.(*ast.FuncCall); ok {
		switch fc.Name {
		case "MAX":
			for _, arg := range fc.Args {
				if atLeast(a, arg, k) {
					return true
				}
			}
			return false
		case "MIN":
			for _, arg := range fc.Args {
				if !atLeast(a, arg, k) {
					return false
				}
			}
			return len(fc.Args) > 0
		}
		return false
	}
	if fc, ok := a.(*ast.FuncCall); ok {
		switch fc.Name {
		case "MIN":
			for _, arg := range fc.Args {
				if atLeast(arg, b, k) {
					return true
				}
			}
			return false
		case "MAX":
			for _, arg := range fc.Args {
				if !atLeast(arg, b, k) {
					return false
				}
			}
			return len(fc.Args) > 0
		}
		return false
	}
	la, okA := depend.Linearize(a, nil, nil)
	lb, okB := depend.Linearize(b, nil, nil)
	if !okA || !okB {
		return false
	}
	d := lb.Minus(&la)
	return d.IsConst() && d.Const >= k
}

func stmtLabel(s ast.Stmt) string {
	switch s.(type) {
	case *ast.Assign:
		return "an assignment"
	case *ast.Do:
		return "a nested loop"
	case *ast.If:
		return "control flow"
	case *ast.Call:
		return "a call"
	case *ast.Return:
		return "a return"
	case *ast.Send, *ast.Recv, *ast.Broadcast, *ast.AllGather,
		*ast.GlobalReduce, *ast.Remap,
		*ast.PostRecv, *ast.WaitRecv, *ast.PostBcast, *ast.WaitBcast:
		return "communication"
	}
	return fmt.Sprintf("%T", s)
}
