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

// emitAccess generates the message statements for one locally-placed
// nonlocal reference.
func emitAccess(in *Input, acc *comm.Access) ([]ast.Stmt, error) {
	var sec []ast.SecDim
	sec, acc.Widened = acc.Sec(in.Proc, in.Plan.Index, in.Env, acc.Pipelined)
	switch acc.Kind {
	case comm.KShift:
		return emitShift(acc.Array, acc.Dist, acc.DistDim, acc.Shift, sec)
	case comm.KPoint:
		point := ast.CloneExpr(acc.Point)
		sec[acc.DistDim] = ast.SecDim{Lo: point, Hi: ast.CloneExpr(point)}
		bc := &ast.Broadcast{Array: acc.Array, Sec: sec, Root: partition.OwnerExpr(acc.Dist, ast.CloneExpr(point))}
		// placed inside AtLoop, or above the whole nest
		var to *decomp.Dist
		bc.To, to, acc.NoTo = receivers(in, acc.Nest[slices.Index(acc.Nest, acc.AtLoop)+1:], acc.Array)
		acc.Ring, acc.NoRing = ring(in, acc.AtLoop, acc.Dist, point, bc.To, to, acc.NoTo)
		return []ast.Stmt{bc}, nil
	case comm.KGather:
		return []ast.Stmt{&ast.AllGather{Array: acc.Array, Sec: sec}}, nil
	}
	return nil, nil
}

// emitCallComm generates messages for a delayed communication
// instantiated at a call site.
func emitCallComm(in *Input, cc *comm.CallComm) ([]ast.Stmt, error) {
	sec := make([]ast.SecDim, len(cc.Section.Dims))
	for d, dim := range cc.Section.Dims {
		if dim == comm.UnknownExtent {
			return nil, errUnsupported("section %s of %s has no declared extent", cc.Section, cc.Array)
		}
		sec[d] = comm.RSDSecDim(dim)
	}
	kind := cc.D.Kind
	dim := cc.Dist.DistDim()
	if kind == comm.KShift && (dim < 0 || cc.Dist.Specs[dim].Kind != ast.DistBlock) {
		kind = comm.KGather // shift emission is block-specific
	}
	switch kind {
	case comm.KShift:
		return emitShift(cc.Array, cc.Dist, dim, cc.D.Shift, sec)
	case comm.KPoint:
		var point ast.Expr
		if cc.PointVar != "" {
			point = ast.Add(ast.Id(cc.PointVar), ast.Int(cc.PointOff))
		} else {
			point = ast.Int(cc.PointOff)
		}
		if dim >= 0 && dim < len(sec) {
			sec[dim] = ast.SecDim{Lo: ast.CloneExpr(point), Hi: ast.CloneExpr(point)}
		}
		bc := &ast.Broadcast{Array: cc.Array, Sec: sec, Root: partition.OwnerExpr(cc.Dist, point)}
		var loops []*ast.Do // placed inside AtLoop, or at the call
		if cc.AtLoop != nil {
			loops = cc.Nest[slices.Index(cc.Nest, cc.AtLoop)+1:]
		}
		var to *decomp.Dist
		bc.To, to, cc.NoTo = receivers(in, loops, cc.Array)
		cc.Ring, cc.NoRing = ring(in, cc.AtLoop, cc.Dist, point, bc.To, to, cc.NoTo)
		return []ast.Stmt{bc}, nil
	default:
		return []ast.Stmt{&ast.AllGather{Array: cc.Array, Sec: sec}}, nil
	}
}

// Why a broadcast reaches every processor (Access.NoTo, CallComm.NoTo).
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
	var send *ast.Send
	var recv *ast.Recv
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
		send = &ast.Send{Array: array, Sec: withDim(sendDim), Dest: ast.Sub(mp, ast.Int(1))}
		recv = &ast.Recv{Array: array, Sec: withDim(recvDim), Src: mp1}
		sendGuard = ast.Cmp(ast.OpGT, mp, ast.Int(0))
		recvGuard = ast.Cmp(ast.OpLT, mp, ast.Int(p-1))
	} else {
		m := -c
		// my block's last m elements go to my successor
		sendDim := ast.SecDim{Lo: ast.Add(mp1b, ast.Int(-m+1)), Hi: mp1b}
		recvDim := ast.SecDim{Lo: ast.Add(mpb, ast.Int(-m+1)), Hi: mpb}
		send = &ast.Send{Array: array, Sec: withDim(sendDim), Dest: mp1}
		recv = &ast.Recv{Array: array, Sec: withDim(recvDim), Src: ast.Sub(mp, ast.Int(1))}
		sendGuard = ast.Cmp(ast.OpLT, mp, ast.Int(p-1))
		recvGuard = ast.Cmp(ast.OpGT, mp, ast.Int(0))
	}
	return []ast.Stmt{
		&ast.If{Cond: sendGuard, Then: []ast.Stmt{send}},
		&ast.If{Cond: recvGuard, Then: []ast.Stmt{recv}},
	}, nil
}
