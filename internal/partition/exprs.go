package partition

import (
	"fortd/internal/ast"
	"fortd/internal/decomp"
)

// MyP is the name of the generated variable holding the local processor
// number (an integer in [0, n$proc)).
const MyP = "my$p"

func myP() ast.Expr { return ast.Id(MyP) }

// BoundExprs rewrites the bounds of loop so that it enumerates only
// the iterations owned by the executing processor under constraint c
// (the "reduce loop bounds" instantiation of the computation
// partition); env supplies PARAMETER constants. Bounds stay in the
// global index space:
//
//	BLOCK:  do v = MAX(lo, my$p*b+1-off), MIN(hi, (my$p+1)*b-off)
//	CYCLIC: do v = lo + MOD(my$p - MOD(lo+off-1,P) + P, P), hi, P
//
// ok is false for a loop that is not Reducible, which falls back to
// running every iteration.
func BoundExprs(c *Constraint, loop *ast.Do, env ast.Env) (newLo, newHi, newStep ast.Expr, ok bool) {
	if !Reducible(c, loop, env) {
		return nil, nil, nil, false
	}
	lo, hi := loop.Lo, loop.Hi
	dim := c.Dist.DistDim()
	if dim < 0 {
		return lo, hi, loop.Step, true
	}
	switch c.Dist.Specs[dim].Kind {
	case ast.DistBlock:
		b := c.Dist.BlockSize()
		// my$p*b + 1 - off
		first := ast.Add(ast.Mul(myP(), ast.Int(b)), ast.Int(1-c.Offset))
		// (my$p+1)*b - off
		last := ast.Sub(ast.Mul(ast.Add(myP(), ast.Int(1)), ast.Int(b)), ast.Int(c.Offset))
		newLo = ast.Max(lo, first)
		if v, isConst := ast.EvalInt(lo, nil); isConst && v == 1-c.Offset {
			newLo = first // common case: loop starts at the array base
		}
		newHi = ast.Min(hi, last)
		return newLo, newHi, nil, true
	case ast.DistCyclic:
		p := c.Dist.P
		// first$(anchor, min, step) is the generated-code intrinsic
		// returning the smallest x >= min with x ≡ anchor (mod step);
		// owned iterations satisfy v ≡ my$p+1-off (mod P)
		anchor := ast.Add(myP(), ast.Int(1-c.Offset))
		newLo = &ast.FuncCall{Name: "first$", Args: []ast.Expr{anchor, lo, ast.Int(p)}}
		if loC, isConst := ast.EvalInt(lo, nil); isConst {
			r := mod(loC+c.Offset-1, p)
			if r == 0 && loC == 1 && c.Offset == 0 {
				// common case do v = my$p+1, hi, P
				newLo = ast.Add(myP(), ast.Int(1))
			}
		}
		return newLo, hi, ast.Int(p), true
	}
	return nil, nil, nil, false
}

// Reducible is the one test of whether loop, read under env, has its
// bounds reduced under c: it steps by one, c is not CYCLIC(k), and its
// body holds no RETURN, which only the processor running that
// iteration would meet. Codegen's rewrite, a reduction's recognition
// and the reduce-bounds remark all ask it; a loop that fails it runs
// every iteration on every processor.
func Reducible(c *Constraint, loop *ast.Do, env ast.Env) bool {
	if loop.Norm(env).Step != 1 || loop.Returns() {
		return false
	}
	dim := c.Dist.DistDim()
	return dim < 0 || c.Dist.Specs[dim].Kind != ast.DistBlockCyclic
}

// GuardExpr builds the ownership test "this processor owns element
// idx+off of the constraint's array" used when the computation
// partition is instantiated with explicit guards.
func GuardExpr(c *Constraint, idx ast.Expr) ast.Expr {
	e := ast.Add(idx, ast.Int(c.Offset))
	return ast.Cmp(ast.OpEQ, OwnerExpr(c.Dist, e), myP())
}

// OwnerExpr builds the expression computing the owner processor of the
// distributed-dimension index idx under dist.
func OwnerExpr(dist *decomp.Dist, idx ast.Expr) ast.Expr {
	dim := dist.DistDim()
	if dim < 0 {
		return ast.Int(0)
	}
	switch dist.Specs[dim].Kind {
	case ast.DistBlock:
		b := dist.BlockSize()
		return &ast.Binary{Op: ast.OpDiv, X: ast.Sub(idx, ast.Int(1)), Y: ast.Int(b)}
	case ast.DistCyclic:
		return &ast.FuncCall{Name: "MOD", Args: []ast.Expr{ast.Sub(idx, ast.Int(1)), ast.Int(dist.P)}}
	case ast.DistBlockCyclic:
		k := dist.Specs[dim].BlockSize
		blk := &ast.Binary{Op: ast.OpDiv, X: ast.Sub(idx, ast.Int(1)), Y: ast.Int(k)}
		return &ast.FuncCall{Name: "MOD", Args: []ast.Expr{blk, ast.Int(dist.P)}}
	}
	return ast.Int(0)
}

func mod(a, p int) int {
	r := a % p
	if r < 0 {
		r += p
	}
	return r
}
