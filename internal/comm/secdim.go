package comm

import (
	"slices"

	"fortd/internal/ast"
	"fortd/internal/depend"
	"fortd/internal/partition"
	"fortd/internal/rsd"
)

// Sec builds the section of acc's message in proc, whose index is ix,
// placed inside AtLoop (nil: no loop) or, around it, one level further
// out. The distributed dimension is left to the emitter of its kind (an
// allgather has none). A dimension that reads a scalar other than a loop
// index of the nest, assigned between the placement and the reference,
// carries the declared extent instead, and widened names the scalar.
func (acc *Access) Sec(proc *ast.Procedure, ix *ast.Index, env ast.Env, around bool) (sec []ast.SecDim, widened string) {
	depth := slices.Index(acc.Nest, acc.AtLoop) + 1
	if around {
		depth--
	}
	sec = make([]ast.SecDim, len(acc.Ref.Subs))
	for d := range acc.Ref.Subs {
		if d == acc.DistDim && acc.Kind != KGather {
			continue // filled per kind
		}
		sec[d] = subSecDim(proc, env, acc.Ref, d, acc.Nest, depth)
		v := ""
		for _, e := range []ast.Expr{sec[d].Lo, sec[d].Hi} {
			ast.WalkExpr(e, func(e ast.Expr) {
				if id, ok := e.(*ast.Ident); ok && partition.LoopFor(acc.Nest, id.Name) == nil && len(acc.Nest) > 0 &&
					assigns(proc, ix, acc.Nest[max(depth-1, 0)], id.Name) {
					v = id.Name
				}
			})
		}
		if sym := proc.Symbols.Lookup(acc.Ref.Name); v != "" && sym != nil && d < len(sym.Dims) {
			sec[d], widened = ast.SecDim{Lo: ast.CloneExpr(sym.Dims[d].Lo), Hi: ast.CloneExpr(sym.Dims[d].Hi)}, v
		}
	}
	return sec, widened
}

// subSecDim converts one subscript of a reference into section bounds
// at a given placement depth: variables of loops deeper than the
// placement are expanded to the ordered ends of the loop's normal form
// (the declared extent where its step is not known); everything else
// is used verbatim (it is evaluable at the placement point, unless Sec
// widens it).
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
			n := nest[j].Norm(env)
			if ok = n.Step != 0; !ok {
				break
			}
			lo := ast.Subst(sub, map[string]ast.Expr{v: n.Low})
			hi := ast.Subst(sub, map[string]ast.Expr{v: n.High})
			if a < 0 {
				lo, hi = hi, lo
			}
			return ast.SecDim{Lo: lo, Hi: hi}
		}
	}
	if !ok {
		// non-affine, or over a loop of unknown step: widen to the
		// declared extent
		if sym := proc.Symbols.Lookup(ref.Name); sym != nil && d < len(sym.Dims) {
			return ast.SecDim{Lo: ast.CloneExpr(sym.Dims[d].Lo), Hi: ast.CloneExpr(sym.Dims[d].Hi)}
		}
	}
	e := ast.CloneExpr(sub)
	return ast.SecDim{Lo: e, Hi: ast.CloneExpr(sub)}
}

// assigns reports whether loop's body may assign the scalar v: as a DO
// index, by assignment, or in a call that passes it or, for a COMMON v,
// any call.
func assigns(proc *ast.Procedure, ix *ast.Index, loop *ast.Do, v string) bool {
	for _, d := range ix.Defs {
		if d.Name == v && slices.Contains(ix.Stmts[d.At].Nest, loop) {
			return true
		}
	}
	if sym := proc.Symbols.Lookup(v); sym != nil && sym.Common != "" {
		return slices.ContainsFunc(ix.Calls, func(k int) bool { return slices.Contains(ix.Stmts[k].Nest, loop) })
	}
	return false
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
