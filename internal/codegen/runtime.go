package codegen

import (
	"fortd/internal/ast"
	"fortd/internal/decomp"
	"fortd/internal/partition"
)

// GenerateRuntime rewrites a procedure with run-time resolution
// (Figure 3): every assignment to a distributed array is guarded by an
// ownership test evaluated per iteration, and every potentially
// nonlocal right-hand-side reference sends one element-message from its
// owner to the computing processor. This is the baseline the paper's
// interprocedural compilation avoids. Like Generate, it returns the new
// body and shares with proc, whose index is ix, what it emits unchanged.
func GenerateRuntime(proc *ast.Procedure, ix *ast.Index, distOf partition.DistOf, entryDists map[string]*decomp.Dist) ([]ast.Stmt, *Result) {
	g := &runtimeGen{proc: proc, ix: ix, distOf: distOf, res: &Result{}}
	body := g.body(proc.Body)
	// Fortran D scoping: dynamic redistribution inside a procedure is
	// undone on return — restore each redistributed array to its entry
	// distribution
	if !proc.IsMain {
		redistributed := map[string]bool{}
		for _, site := range ix.Stmts {
			if d, ok := site.Stmt.(*ast.Distribute); ok {
				if sym := proc.Symbols.Lookup(d.Target); sym != nil && sym.Kind == ast.SymArray {
					redistributed[d.Target] = true
				}
			}
		}
		for arr := range redistributed {
			entry := entryDists[arr]
			if entry == nil || len(entry.Specs) == 0 {
				continue
			}
			body = append(body, &ast.Remap{Array: arr, To: append([]ast.DistSpec(nil), entry.Specs...)})
			g.res.RemapsInserted++
		}
	}
	prologue := []ast.Stmt{&ast.Assign{
		Lhs: ast.Id(partition.MyP),
		Rhs: &ast.FuncCall{Name: "myproc"},
	}}
	return append(prologue, body...), g.res
}

// runtimeGen is GenerateRuntime's pass over proc: k is the position in
// ix of the next statement it visits.
type runtimeGen struct {
	proc   *ast.Procedure
	ix     *ast.Index
	distOf partition.DistOf
	res    *Result
	k      int
}

func (g *runtimeGen) body(body []ast.Stmt) []ast.Stmt {
	var out []ast.Stmt
	for _, s := range body {
		k := g.k
		g.k++
		switch st := s.(type) {
		case *ast.Decomposition, *ast.Align:
			// directives: decomposition state is static per procedure
			// under run-time resolution as well
		case *ast.Distribute:
			sym := g.proc.Symbols.Lookup(st.Target)
			if sym != nil && sym.Kind == ast.SymArray {
				rm := &ast.Remap{Array: st.Target, To: append([]ast.DistSpec(nil), st.Specs...)}
				rm.Position = st.Pos()
				out = append(out, rm)
				g.res.RemapsInserted++
			}
		case *ast.Do:
			// distributed reads in the bounds resolve before the loop
			out = append(out, resolveReads(g.distOf, st, g.res, st.Lo, st.Hi, st.Step)...)
			nl := &ast.Do{Var: st.Var, Lo: st.Lo, Hi: st.Hi, Step: st.Step}
			nl.Body = g.body(st.Body)
			out = append(out, nl)
		case *ast.If:
			// every processor must take the same branch: distributed
			// reads in the condition are broadcast from their owners
			out = append(out, resolveReads(g.distOf, st, g.res, st.Cond)...)
			ni := &ast.If{Cond: st.Cond}
			ni.Then = g.body(st.Then)
			ni.Else = g.body(st.Else)
			out = append(out, ni)
		case *ast.Assign:
			stmts := g.assign(st, k)
			stampPos(stmts, st.Pos())
			out = append(out, stmts...)
		default:
			out = append(out, s)
		}
	}
	return out
}

// ownerOf returns the owner expression of a reference's distributed
// element, or nil when the array is replicated (owned everywhere).
func ownerOf(distOf partition.DistOf, ref *ast.ArrayRef, at ast.Stmt) ast.Expr {
	dist, ok := distOf(ref.Name, at)
	if !ok || dist == nil || dist.IsReplicated() || dist.DistDim() >= len(ref.Subs) {
		return nil
	}
	return partition.OwnerExpr(dist, ref.Subs[dist.DistDim()])
}

// resolveReads emits one element broadcast per distributed array
// reference in the given expressions (deduplicated), making the values
// available on every processor.
func resolveReads(distOf partition.DistOf, at ast.Stmt, res *Result, exprs ...ast.Expr) []ast.Stmt {
	var out []ast.Stmt
	seen := map[string]bool{}
	var rec func(e ast.Expr)
	rec = func(e ast.Expr) {
		switch x := e.(type) {
		case nil:
		case *ast.ArrayRef:
			for _, sub := range x.Subs {
				rec(sub)
			}
			owner := ownerOf(distOf, x, at)
			if owner == nil {
				return
			}
			key := x.String()
			if seen[key] {
				return
			}
			seen[key] = true
			sec := make([]ast.SecDim, len(x.Subs))
			for d, sub := range x.Subs {
				sec[d] = ast.SecDim{Lo: sub, Hi: sub}
			}
			bc := &ast.Broadcast{Array: x.Name, Sec: sec, Root: owner}
			bc.Position = at.Pos()
			out = append(out, bc)
			res.MessagesInserted++
		case *ast.FuncCall:
			for _, a := range x.Args {
				rec(a)
			}
		case *ast.Binary:
			rec(x.X)
			rec(x.Y)
		case *ast.Unary:
			rec(x.X)
		}
	}
	for _, e := range exprs {
		rec(e)
	}
	return out
}

// assign compiles the assignment at position k in the Figure 3 style.
func (g *runtimeGen) assign(st *ast.Assign, k int) []ast.Stmt {
	var out []ast.Stmt
	replicated := true // scalar lhs: every processor computes
	lhsOwner := myP()
	if lhs, ok := st.Lhs.(*ast.ArrayRef); ok {
		if o := ownerOf(g.distOf, lhs, st); o != nil {
			lhsOwner = o
			replicated = false
		}
	}
	iCompute := ast.Cmp(ast.OpEQ, myP(), lhsOwner)

	// one element message per distributed reference the right-hand side
	// and then the left-hand side's subscripts read whose owner may
	// differ from the computing processor
	refs := g.ix.RefsAt(k, st)
	for _, lhs := range [2]bool{false, true} {
		for _, r := range refs {
			if r.Lhs != lhs || r.Write {
				continue
			}
			ref := r.ArrayRef
			srcOwner := ownerOf(g.distOf, ref, st)
			if srcOwner == nil {
				continue
			}
			sec := make([]ast.SecDim, len(ref.Subs))
			for d, sub := range ref.Subs {
				sec[d] = ast.SecDim{Lo: sub, Hi: sub}
			}
			if replicated {
				// every processor computes: the owner broadcasts the element
				out = append(out, &ast.Broadcast{Array: ref.Name, Sec: sec, Root: srcOwner})
				g.res.MessagesInserted++
				continue
			}
			if ast.ExprEqual(srcOwner, lhsOwner) {
				continue // the computing processor owns the element
			}
			differ := ast.Cmp(ast.OpNE, srcOwner, lhsOwner)
			iOwnSrc := ast.Cmp(ast.OpEQ, myP(), srcOwner)
			out = append(out, &ast.If{Cond: differ, Then: []ast.Stmt{
				&ast.If{Cond: iOwnSrc, Then: []ast.Stmt{&ast.Send{Array: ref.Name, Sec: sec, Dest: lhsOwner}}},
				&ast.If{Cond: iCompute, Then: []ast.Stmt{&ast.Recv{Array: ref.Name, Sec: sec, Src: srcOwner}}},
			}})
			g.res.MessagesInserted += 2
		}
	}
	if replicated {
		out = append(out, st)
	} else {
		out = append(out, &ast.If{Cond: iCompute, Then: []ast.Stmt{st}})
		g.res.GuardsInserted++
	}
	return out
}
