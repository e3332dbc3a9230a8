package codegen

import (
	"fortd/internal/ast"
	"fortd/internal/comm"
	"fortd/internal/decomp"
	"fortd/internal/partition"
)

func myP() ast.Expr { return ast.Id(partition.MyP) }

// emitAccess generates the message statements for one locally-placed
// nonlocal reference.
func emitAccess(in *Input, acc *comm.Access) ([]ast.Stmt, error) {
	sec := acc.Sec(in.Proc, in.Env, acc.Pipelined)
	switch acc.Kind {
	case comm.KShift:
		return emitShift(acc.Array, acc.Dist, acc.DistDim, acc.Shift, sec)
	case comm.KPoint:
		point := ast.CloneExpr(acc.Point)
		sec[acc.DistDim] = ast.SecDim{Lo: point, Hi: ast.CloneExpr(point)}
		bc := &ast.Broadcast{Array: acc.Array, Sec: sec, Root: partition.OwnerExpr(acc.Dist, ast.CloneExpr(point))}
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
		return []ast.Stmt{bc}, nil
	default:
		return []ast.Stmt{&ast.AllGather{Array: cc.Array, Sec: sec}}, nil
	}
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
	cloneSec := func(over ast.SecDim) []ast.SecDim {
		out := make([]ast.SecDim, len(sec))
		for i, d := range sec {
			if i == dim {
				out[i] = over
				continue
			}
			out[i] = ast.SecDim{Lo: ast.CloneExpr(d.Lo), Hi: ast.CloneExpr(d.Hi)}
		}
		return out
	}
	var send *ast.Send
	var recv *ast.Recv
	var sendGuard, recvGuard ast.Expr
	if c > 0 {
		// my block's first c elements go to my predecessor
		sendDim := ast.SecDim{
			Lo: ast.Add(ast.Mul(myP(), ast.Int(b)), ast.Int(1)),
			Hi: ast.Min(ast.Add(ast.Mul(myP(), ast.Int(b)), ast.Int(c)), ast.Int(n)),
		}
		recvDim := ast.SecDim{
			Lo: ast.Add(ast.Mul(ast.Add(myP(), ast.Int(1)), ast.Int(b)), ast.Int(1)),
			Hi: ast.Min(ast.Add(ast.Mul(ast.Add(myP(), ast.Int(1)), ast.Int(b)), ast.Int(c)), ast.Int(n)),
		}
		send = &ast.Send{Array: array, Sec: cloneSec(sendDim), Dest: ast.Sub(myP(), ast.Int(1))}
		recv = &ast.Recv{Array: array, Sec: cloneSec(recvDim), Src: ast.Add(myP(), ast.Int(1))}
		sendGuard = ast.Cmp(ast.OpGT, myP(), ast.Int(0))
		recvGuard = ast.Cmp(ast.OpLT, myP(), ast.Int(p-1))
	} else {
		m := -c
		// my block's last m elements go to my successor
		sendDim := ast.SecDim{
			Lo: ast.Add(ast.Mul(ast.Add(myP(), ast.Int(1)), ast.Int(b)), ast.Int(-m+1)),
			Hi: ast.Mul(ast.Add(myP(), ast.Int(1)), ast.Int(b)),
		}
		recvDim := ast.SecDim{
			Lo: ast.Add(ast.Mul(myP(), ast.Int(b)), ast.Int(-m+1)),
			Hi: ast.Mul(myP(), ast.Int(b)),
		}
		send = &ast.Send{Array: array, Sec: cloneSec(sendDim), Dest: ast.Add(myP(), ast.Int(1))}
		recv = &ast.Recv{Array: array, Sec: cloneSec(recvDim), Src: ast.Sub(myP(), ast.Int(1))}
		sendGuard = ast.Cmp(ast.OpLT, myP(), ast.Int(p-1))
		recvGuard = ast.Cmp(ast.OpGT, myP(), ast.Int(0))
	}
	return []ast.Stmt{
		&ast.If{Cond: sendGuard, Then: []ast.Stmt{send}},
		&ast.If{Cond: recvGuard, Then: []ast.Stmt{recv}},
	}, nil
}
