package sched

import "fortd/internal/ast"

// ---------------------------------------------------------------------------
// Redundant-broadcast elimination

// dropRedundant deletes the broadcast at i if its data was already
// delivered by an earlier broadcast in the same statement list: same
// array, same root expression, section and receivers contained in the
// earlier one's, and every statement in between one the broadcast may
// move across
// (nothing writes the array or a variable its expressions read, nothing
// communicates). Such a broadcast is a pure re-synchronization — every
// processor already holds the root's values — and deleting it removes
// both the root's injection occupancy and the receivers' stall. The
// codegen layer places one broadcast per reference group, so a column
// broadcast followed by a broadcast of one of its elements (dgefa's
// pivot a(k,k) after the pivot column a(1:n,k)) is a common shape. A
// broadcast that stays is not remarked on here: the hoist considers it
// next.
func dropRedundant(v *view, i int) (int, bool) {
	b2, ok := v.list[i].(*ast.Message)
	if !ok || b2.Op != ast.MsgBcast || i == 0 {
		return i, false
	}
	reads := v.reads(b2)
	for j := i - 1; j >= 0; j-- {
		b1, ok := v.list[j].(*ast.Message)
		if ok && b1.Op == ast.MsgBcast && b1.Array == b2.Array && ast.ExprEqual(b1.Peer, b2.Peer) && v.contains(b1, b2) && reaches(b1.To, b2.To) {
			v.replace(i, 1)
			v.applied(b2.Pos().Line, "broadcast removed: section already delivered by the line %d broadcast from the same root, with no intervening writes", b1.Pos().Line)
			return i, true
		}
		if v.blocker(v.list[j], reads) != "" {
			break
		}
	}
	return i, false
}

// contains reports whether b2's section is provably inside b1's,
// dimension by dimension: equal bounds, a constant-offset containment,
// or b1 spanning the array's whole declared extent (any in-bounds
// subscript is then contained).
func (v *view) contains(b1, b2 *ast.Message) bool {
	if len(b1.Sec) != len(b2.Sec) {
		return false
	}
	sym := v.unit.Symbols.Lookup(b1.Array)
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

// reaches reports whether the receivers r1 names provably include those
// r2 names (nil: every processor): the same dimension of the same
// array, bounded at least as widely.
func reaches(r1, r2 *ast.Receivers) bool {
	switch {
	case r1 == nil:
		return true
	case r2 == nil || r1.Array != r2.Array || r1.Dim != r2.Dim:
		return false
	}
	return (ast.ExprEqual(r1.Lo, r2.Lo) || atLeast(r1.Lo, r2.Lo, 0)) &&
		(ast.ExprEqual(r1.Hi, r2.Hi) || atLeast(r2.Hi, r1.Hi, 0))
}

// ---------------------------------------------------------------------------
// Broadcast hoist

// hoistBcast splits the broadcast at i into a post placed above the
// longest run of its predecessors it may move across and a wait in its
// own position, so the root's tree sends are in flight while every
// processor runs the statements in between. A broadcast with no
// predecessor at this level is left blocking without a remark (there is
// nothing to overlap); one pinned by its immediate predecessor gets a
// Missed remark naming what pins it.
func hoistBcast(v *view, i int) (int, bool) {
	bc, ok := v.list[i].(*ast.Message)
	if !ok || bc.Op != ast.MsgBcast || i == 0 {
		return i, false
	}
	reads := v.reads(bc)
	h, why := i, ""
	for h > 0 {
		if why = v.blocker(v.list[h-1], reads); why != "" {
			break
		}
		h--
	}
	if h == i {
		v.missed(bc.Pos().Line, "%s", why)
		return i + 1, true
	}
	post, wait := v.split(bc)
	v.replace(i, 1, wait)
	v.replace(h, 0, post)
	v.applied(bc.Pos().Line, "broadcast posted %d statement(s) early; wait sunk to original position", i-h)
	return i + 2, true
}
