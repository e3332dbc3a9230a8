package partition

import (
	"fortd/internal/ast"
	"fortd/internal/decomp"
)

// matchReduction recognizes the syntactic reduction forms
//
//	s = s + term      s = term + s      s = s - term
//	s = MAX(s, term)  s = MAX(term, s)  (and MIN)
//
// returning the accumulator name and the operation.
func matchReduction(st *ast.Assign) (string, string, bool) {
	lhs, ok := st.Lhs.(*ast.Ident)
	if !ok {
		return "", "", false
	}
	isS := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == lhs.Name
	}
	switch rhs := st.Rhs.(type) {
	case *ast.Binary:
		switch rhs.Op {
		case ast.OpAdd:
			if isS(rhs.X) {
				return lhs.Name, "+", true
			}
			if isS(rhs.Y) {
				return lhs.Name, "+", true
			}
		case ast.OpSub:
			if isS(rhs.X) {
				return lhs.Name, "+", true // s = s - term accumulates too
			}
		}
	case *ast.FuncCall:
		if (rhs.Name == "MAX" || rhs.Name == "MIN") && len(rhs.Args) == 2 {
			if isS(rhs.Args[0]) && !containsIdent(rhs.Args[1], lhs.Name) {
				return lhs.Name, rhs.Name, true
			}
			if isS(rhs.Args[1]) && !containsIdent(rhs.Args[0], lhs.Name) {
				return lhs.Name, rhs.Name, true
			}
		}
	}
	return "", "", false
}

// analyzeReduction decides whether a matched reduction can be
// partitioned: every distributed reference in the term must be indexed
// by the same local loop variable in its distributed dimension (the
// first such reference supplies the ownership constraint), and the
// accumulator must not be referenced anywhere else in that loop.
func analyzeReduction(proc *ast.Procedure, ix *ast.Index, k int, distOf DistOf, env ast.Env) *Item {
	st, nest := ix.Stmts[k].Stmt.(*ast.Assign), ix.Stmts[k].Nest
	name, op, ok := matchReduction(st)
	if !ok || len(nest) == 0 {
		return nil
	}
	var c *Constraint
	var loop *ast.Do
	var firstSub SubPattern
	var firstDist *decomp.Dist
	firstDim := 0
	// the left-hand side is the accumulator, so the statement's
	// references are the term's
	for _, ref := range ix.RefsOf(k) {
		dist, okD := distOf(ref.Name, st)
		if !okD || dist == nil || dist.IsReplicated() {
			continue
		}
		dim := dist.DistDim()
		if dim >= len(ref.Subs) {
			return nil
		}
		sub := AnalyzeSub(ref.Subs[dim], env)
		if !sub.OK || sub.Var == "" || sub.Coef != 1 {
			return nil
		}
		l := LoopFor(nest, sub.Var)
		if l == nil {
			return nil // formal-indexed reductions are not delayed
		}
		if c == nil {
			c = &Constraint{Array: ref.Name, Dist: dist, Offset: sub.Off}
			loop = l
			firstSub = sub
			firstDist = dist
			firstDim = dim
			continue
		}
		if l != loop {
			return nil // mixed loops: give up
		}
	}
	if c == nil || !Reducible(c, loop, env) {
		return nil // nothing distributed, or every processor runs the whole loop and would add every term
	}
	// the accumulator must appear exactly twice in the loop (its own
	// lhs and rhs occurrence)
	at := k
	for ix.Stmts[at].Stmt != ast.Stmt(loop) {
		at--
	}
	uses := 0
	for _, s := range ix.Stmts[at+1 : ix.Stmts[at].End] {
		for _, e := range ast.StmtExprs(s.Stmt) {
			uses += countIdent(e, name)
		}
	}
	if uses != 2 {
		return nil
	}
	return &Item{
		Stmt: st, At: k, Nest: nest,
		Dist: firstDist, DistDim: firstDim, Sub: firstSub,
		Loop: loop, C: c,
		Red: &Reduction{Var: name, Op: op},
	}
}

func containsIdent(e ast.Expr, name string) bool { return countIdent(e, name) > 0 }

func countIdent(e ast.Expr, name string) int {
	n := 0
	ast.WalkExpr(e, func(e ast.Expr) {
		if x, ok := e.(*ast.Ident); ok && x.Name == name {
			n++
		}
	})
	return n
}

// demoteReduction strips a reduction back to replicated execution.
func demoteReduction(it *Item) {
	it.Red = nil
	it.C = nil
	it.Loop = nil
	it.Guard = false
	it.Dist = nil
}
