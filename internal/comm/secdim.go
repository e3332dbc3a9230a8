package comm

import (
	"slices"

	"fortd/internal/ast"
	"fortd/internal/depend"
	"fortd/internal/rsd"
)

// Sec builds the section of acc's message, placed inside AtLoop (nil:
// no loop) or, around it, one level further out. The distributed
// dimension is left to the emitter of its kind (an allgather has none).
func (acc *Access) Sec(proc *ast.Procedure, env ast.Env, around bool) []ast.SecDim {
	depth := slices.Index(acc.Nest, acc.AtLoop) + 1
	if around {
		depth--
	}
	sec := make([]ast.SecDim, len(acc.Ref.Subs))
	for d := range acc.Ref.Subs {
		if d == acc.DistDim && acc.Kind != KGather {
			continue // filled per kind
		}
		sec[d] = subSecDim(proc, env, acc.Ref, d, acc.Nest, depth)
	}
	return sec
}

// subSecDim converts one subscript of a reference into section bounds
// at a given placement depth: variables of loops deeper than the
// placement are expanded to the loop's bound expressions; everything
// else is used verbatim (it is evaluable at the placement point).
func subSecDim(proc *ast.Procedure, env ast.Env, ref *ast.ArrayRef, d int, nest []*ast.Do, depth int) ast.SecDim {
	sub := ref.Subs[d]
	v, a, _, ok := depend.LinearSubscript(sub, env)
	if ok && v != "" {
		for j := len(nest) - 1; j >= 0; j-- {
			if nest[j].Var != v {
				continue
			}
			if j < depth {
				break // defined at the placement point: verbatim
			}
			loop := nest[j]
			lo := ast.Subst(sub, map[string]ast.Expr{v: loop.Lo})
			hi := ast.Subst(sub, map[string]ast.Expr{v: loop.Hi})
			if a < 0 {
				lo, hi = hi, lo
			}
			return ast.SecDim{Lo: lo, Hi: hi}
		}
	}
	if !ok {
		// non-affine: widen to the declared extent
		if sym := proc.Symbols.Lookup(ref.Name); sym != nil && d < len(sym.Dims) {
			return ast.SecDim{Lo: ast.CloneExpr(sym.Dims[d].Lo), Hi: ast.CloneExpr(sym.Dims[d].Hi)}
		}
	}
	e := ast.CloneExpr(sub)
	return ast.SecDim{Lo: e, Hi: ast.CloneExpr(sub)}
}

// RSDSecDim converts an RSD dimension into section bound expressions.
func RSDSecDim(d rsd.Dim) ast.SecDim {
	end := func(anchor string, off int) ast.Expr {
		if anchor == "" {
			return ast.Int(off)
		}
		return ast.Add(ast.Id(anchor), ast.Int(off))
	}
	return ast.SecDim{Lo: end(d.LoVar, d.Lo), Hi: end(d.HiVar, d.Hi)}
}
