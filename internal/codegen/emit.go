package codegen

import (
	"slices"

	"fortd/internal/ast"
	"fortd/internal/comm"
	"fortd/internal/decomp"
	"fortd/internal/depend"
	"fortd/internal/partition"
)

func myP() ast.Expr { return ast.Id(partition.MyP) }

// emitAccess generates the message statements for one placed message:
// a nonlocal reference's, or a callee's instantiated at a call.
func emitAccess(in *Input, acc *comm.Access) ([]ast.Stmt, error) {
	if acc.Site != nil && slices.Contains(acc.Section.Dims, comm.UnknownExtent) {
		return nil, errUnsupported("section %s of %s has no declared extent", acc.Section, acc.Array)
	}
	var sec []ast.SecDim
	sec, acc.Widened = acc.Sec(in.Proc, in.Plan.Index, in.Env, acc.Pipelined)
	kind, dim := acc.Kind, acc.DistDim
	if kind == comm.KShift && (dim < 0 || acc.Dist.Specs[dim].Kind != ast.DistBlock) {
		kind = comm.KGather // a callee's shift on a layout that is not BLOCK here
	}
	switch kind {
	case comm.KShift:
		return emitShift(acc.Array, acc.Dist, dim, acc.Shift, sec)
	case comm.KPoint:
		point := ast.CloneExpr(acc.Point)
		if dim >= 0 && dim < len(sec) {
			sec[dim] = ast.SecDim{Lo: point, Hi: ast.CloneExpr(point)}
		}
		bc := &ast.Message{Op: ast.MsgBcast, Array: acc.Array, Sec: sec, Peer: partition.OwnerExpr(acc.Dist, ast.CloneExpr(point))}
		// placed inside AtLoop, or above the whole nest; a callee's
		// before its loops or at the call serves no loop
		var loops []*ast.Do
		if acc.Site == nil || acc.AtLoop != nil {
			loops = acc.Nest[slices.Index(acc.Nest, acc.AtLoop)+1:]
		}
		var to *decomp.Dist
		bc.To, to, acc.NoTo = receivers(in, loops, acc.Array)
		acc.Ring, acc.NoRing = ring(in, acc.AtLoop, acc.Dist, point, bc.To, to, acc.NoTo)
		return []ast.Stmt{bc}, nil
	case comm.KGather:
		return []ast.Stmt{&ast.Message{Op: ast.MsgAllGather, Array: acc.Array, Sec: sec}}, nil
	}
	return nil, nil
}

// Why a broadcast reaches every processor (Access.NoTo).
const (
	whyToNoLoop     = "no loop lies between the message and its reference"
	whyToReplicated = "the loop it is placed before runs every iteration on every processor"
	whyToRemap      = "a remap runs between the message and the loop it is placed before"
	whyToNoArray    = "no array of the procedure is distributed as the loop's partition"
)

// receivers derives a broadcast's "to" clause from loops, those between
// where it is placed and the reference it serves, outermost first: if
// loops[0], the one it is placed before, has reduced bounds, only the
// owners of its iterations run the reference, and the clause names them
// as owners of a section of an array distributed as its partition, the
// distribution it also returns.
func receivers(in *Input, loops []*ast.Do, array string) (*ast.Receivers, *decomp.Dist, string) {
	if len(loops) == 0 {
		return nil, nil, whyToNoLoop
	}
	l, c := loops[0], in.Plan.LoopBounds[loops[0]]
	if c == nil || c.Dist.DistDim() < 0 || !partition.Reducible(c, l, in.Env) {
		return nil, nil, whyToReplicated
	}
	if in.Remaps != nil && len(in.Remaps.BeforeLoop[l])+len(in.Remaps.BeforeStmt[l]) > 0 {
		return nil, nil, whyToRemap
	}
	for _, name := range []string{c.Array, array} {
		if d, ok := in.DistOf(name, l); ok && d != nil && d.Key() == c.Dist.Key() && slices.Equal(d.Sizes, c.Dist.Sizes) {
			return &ast.Receivers{Array: name, Dim: d.DistDim(), Rank: len(d.Sizes),
				Lo: ast.Add(ast.CloneExpr(l.Lo), ast.Int(c.Offset)), Hi: ast.Add(ast.CloneExpr(l.Hi), ast.Int(c.Offset))}, d, ""
		}
	}
	return nil, nil, whyToNoArray
}

// ring chooses the shape of a broadcast from the owner of point under dist
// placed in every iteration of loop at (DESIGN.md deviation 16). Its root
// rotates if at steps by one, dist is CYCLIC and point is at's index plus
// a constant; if its clause to, CYCLIC too (toDist), starts at point + 1,
// the next root receives first and the ring visits the receivers in the
// order they become roots: to.Ring is set. A rotating root without a
// clause stays a tree, and why is noTo.
func ring(in *Input, at *ast.Do, dist *decomp.Dist, point ast.Expr, to *ast.Receivers, toDist *decomp.Dist, noTo string) (bool, string) {
	cyclic := func(d *decomp.Dist) bool {
		return d != nil && d.DistDim() >= 0 && d.Specs[d.DistDim()].Kind == ast.DistCyclic
	}
	if at == nil || !cyclic(dist) {
		return false, ""
	}
	pt, ok := depend.Linearize(point, in.Env, nil)
	v, coef, _, single := pt.Single()
	if !ok || !single || v != at.Var || coef != 1 || at.Norm(in.Env).Step != 1 {
		return false, ""
	}
	if to == nil {
		return false, noTo
	}
	lo, ok := depend.Linearize(to.Lo, in.Env, nil)
	d := lo.Minus(&pt)
	to.Ring = ok && d.IsConst() && d.Const == 1 && cyclic(toDist)
	return to.Ring, ""
}

// emitShift produces the guarded boundary exchange of message
// vectorization for a BLOCK distribution (Figure 2's send/recv pair).
// For shift c > 0 each processor needs the first c elements of its
// successor's block; for c < 0, the last |c| elements of its
// predecessor's.
func emitShift(array string, dist *decomp.Dist, dim, c int, sec []ast.SecDim) ([]ast.Stmt, error) {
	if dim < 0 || dist.Specs[dim].Kind != ast.DistBlock {
		return nil, errUnsupported("shift on non-block distribution %s", dist.Key())
	}
	b := dist.BlockSize()
	n := dist.Sizes[dim]
	p := dist.P
	withDim := func(over ast.SecDim) []ast.SecDim {
		out := slices.Clone(sec)
		out[dim] = over
		return out
	}
	// generated expressions are never written, so the pieces both
	// sections and both guards name are built once and shared
	mp := myP()
	mp1 := ast.Add(mp, ast.Int(1))
	mpb, mp1b := ast.Mul(mp, ast.Int(b)), ast.Mul(mp1, ast.Int(b))
	var send, recv *ast.Message
	var sendGuard, recvGuard ast.Expr
	if c > 0 {
		// my block's first c elements go to my predecessor
		sendDim := ast.SecDim{
			Lo: ast.Add(mpb, ast.Int(1)),
			Hi: ast.Min(ast.Add(mpb, ast.Int(c)), ast.Int(n)),
		}
		recvDim := ast.SecDim{
			Lo: ast.Add(mp1b, ast.Int(1)),
			Hi: ast.Min(ast.Add(mp1b, ast.Int(c)), ast.Int(n)),
		}
		send = &ast.Message{Op: ast.MsgSend, Array: array, Sec: withDim(sendDim), Peer: ast.Sub(mp, ast.Int(1))}
		recv = &ast.Message{Op: ast.MsgRecv, Array: array, Sec: withDim(recvDim), Peer: mp1}
		sendGuard = ast.Cmp(ast.OpGT, mp, ast.Int(0))
		recvGuard = ast.Cmp(ast.OpLT, mp, ast.Int(p-1))
	} else {
		m := -c
		// my block's last m elements go to my successor
		sendDim := ast.SecDim{Lo: ast.Add(mp1b, ast.Int(-m+1)), Hi: mp1b}
		recvDim := ast.SecDim{Lo: ast.Add(mpb, ast.Int(-m+1)), Hi: mpb}
		send = &ast.Message{Op: ast.MsgSend, Array: array, Sec: withDim(sendDim), Peer: mp1}
		recv = &ast.Message{Op: ast.MsgRecv, Array: array, Sec: withDim(recvDim), Peer: ast.Sub(mp, ast.Int(1))}
		sendGuard = ast.Cmp(ast.OpLT, mp, ast.Int(p-1))
		recvGuard = ast.Cmp(ast.OpGT, mp, ast.Int(0))
	}
	return []ast.Stmt{
		&ast.If{Cond: sendGuard, Then: []ast.Stmt{send}},
		&ast.If{Cond: recvGuard, Then: []ast.Stmt{recv}},
	}, nil
}
