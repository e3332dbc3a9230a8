package sched

import (
	"fmt"

	"fortd/internal/ast"
	"fortd/internal/depend"
)

// pipelinePivot pipelines a rotating-root pivot broadcast across the
// iterations of the loop at i — the classic LU lookahead. The matched
// shape is the §9 dgefa schedule the compiler generates:
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
// columns j and k, never k+1 (checked by confined), and the congruence
// check proves the broadcast root is the processor that owns — and has
// just updated — column k+1. The prologue post goes in front of the
// loop.
func pipelinePivot(v *view, i int) (int, bool) {
	loop := v.list[i].(*ast.Do)
	body := loop.Body
	if loop.Norm(nil).Step != 1 || len(body) < 2 {
		return i, false
	}
	// the first broadcast of the body, at its top in the matched shape
	var bc *ast.Message
	at := -1
	for bc == nil && at < len(body)-2 {
		at++
		if m, ok := body[at].(*ast.Message); ok && m.Op == ast.MsgBcast {
			bc = m
		}
	}
	if bc == nil {
		return i, false
	}
	k := loop.Var
	// the pivot dimension selects exactly column k; every other section
	// bound must be independent of k so substituting k+1 shifts only it
	pivot, shifted := -1, false
	for d, sd := range bc.Sec {
		if isIdent(sd.Lo, k) && isIdent(sd.Hi, k) {
			if pivot >= 0 {
				return i, false
			}
			pivot = d
		} else if mentions(sd.Lo, k) || mentions(sd.Hi, k) {
			shifted = true
		}
	}
	if pivot < 0 || !mentions(bc.Peer, k) {
		return i, false
	}
	miss := func(format string, args ...interface{}) (int, bool) {
		v.missed(bc.Pos().Line, format, args...)
		return i + 1, true
	}
	// the owner factors column k in place before it sends it: posting the
	// column an iteration early would send what it held before
	writer := ""
	ast.WalkStmts(body[:at], func(s ast.Stmt) bool {
		if call, ok := s.(*ast.Call); ok && v.effects(s).Mod.Has(bc.Array) {
			writer = "call " + call.Name
		}
		return true
	})
	if writer != "" {
		return miss("column %s is written by its owner (%s) between its update and the broadcast", k, writer)
	}
	if at > 0 || shifted {
		return i, false
	}
	jloop, ok := body[len(body)-1].(*ast.Do)
	if !ok {
		return miss("loop body does not end in an update loop")
	}
	// rotating owner: MOD(k + c1, s)
	rootCall, ok := bc.Peer.(*ast.FuncCall)
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
	if jloop.Norm(nil).Step != s {
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
	if mentions(jloop.Hi, jvar) {
		return miss("update loop bound depends on its own variable")
	}
	if why := v.confined(jloop.Body, columns{bc.Array, pivot, jvar, k}, nil); why != "" {
		return miss("%s", why)
	}
	// peeling perturbs the update variable's fall-out value when the
	// remainder loop runs zero iterations, so it must be loop-private
	if uses(v.unit.Body, jvar) > uses([]ast.Stmt{jloop}, jvar) {
		return miss("update variable %s is live outside the update loop", jvar)
	}

	// all proofs hold: build the pipeline
	split, wait := v.split(bc)
	postAt := func(val ast.Expr) *ast.Message {
		env := map[string]ast.Expr{k: val}
		post := *split
		post.Sec = make([]ast.SecDim, len(bc.Sec))
		for d, sd := range bc.Sec {
			post.Sec[d] = ast.SecDim{Lo: ast.Subst(sd.Lo, env), Hi: ast.Subst(sd.Hi, env)}
		}
		post.Peer = ast.Subst(bc.Peer, env)
		post.To = bc.To.Subst(env)
		return &post
	}
	guarded := func(op ast.BinOp, x, y ast.Expr, then ast.Stmt) *ast.If {
		g := &ast.If{Cond: &ast.Binary{Op: op, X: ast.CloneExpr(x), Y: ast.CloneExpr(y)}, Then: []ast.Stmt{then}}
		g.Position = bc.Pos()
		return g
	}
	prologue := guarded(ast.OpLE, loop.Lo, loop.Hi, postAt(loop.Lo))

	// peeled first iteration: a single-trip copy of the update loop,
	// guarded by ownership of column k+1 and the original loop range
	peelLoop := ast.CloneStmt(jloop).(*ast.Do)
	peelLoop.Lo, peelLoop.Hi = ast.CloneExpr(loExpr), ast.CloneExpr(loExpr)
	peel := guarded(ast.OpEQ, jloop.Lo, loExpr, guarded(ast.OpLE, loExpr, jloop.Hi, peelLoop))

	kIdent := ast.Id(k)
	nextPost := guarded(ast.OpLT, kIdent, loop.Hi, postAt(addConst(kIdent, 1)))

	// remainder: the update loop restarts past the peeled column
	rest := *jloop
	rest.Lo = &ast.FuncCall{Name: "first$", Args: []ast.Expr{
		ast.CloneExpr(anchor), addConst(loExpr, 1), &ast.IntLit{Value: s}}}

	pipelined := *loop
	pipelined.Body = append(append([]ast.Stmt{wait}, body[1:len(body)-1]...), peel, nextPost, &rest)
	v.replace(i, 1, prologue, &pipelined)
	v.applied(bc.Pos().Line, "pivot broadcast pipelined across %s iterations: column %s+1 posted right after its own update, in flight during the remaining %s-loop",
		k, k, jvar)
	return i + 2, true
}

// columns is what confined holds an update loop to: array arr touched
// only at column jvar (written or read) or column kvar (read) of its
// pivot dimension.
type columns struct {
	arr        string
	pivot      int
	jvar, kvar string
}

// confined checks that every reference to c.arr in body touches only
// column j (writes and reads) or column k (reads): the peeled-column
// broadcast then provably sends final values, and no remaining
// iteration observes the posted column. It returns "" then, and the
// offending reference otherwise. Calls are followed through
// formal-to-actual substitution (env maps callee names to caller
// expressions; nil in the update loop itself); a callee that writes the
// array under its own name, through a COMMON block, is not followed.
func (v *view) confined(body []ast.Stmt, c columns, env map[string]ast.Expr) string {
	// check examines the references of one expression; assigned says the
	// expression itself is an assignment's target
	check := func(e ast.Expr, assigned bool) (why string) {
		ast.WalkExpr(e, func(x ast.Expr) {
			r, ok := x.(*ast.ArrayRef)
			if !ok || why != "" {
				return
			}
			name := r.Name
			switch actual := env[name].(type) {
			case *ast.ArrayRef:
				name = actual.Name
			case *ast.Ident:
				name = actual.Name
			}
			if name == c.arr {
				why = c.column(r, assigned && x == e, env)
			}
		})
		return why
	}
	for _, st := range body {
		why := ""
		switch s := st.(type) {
		case *ast.Assign:
			if why = check(s.Lhs, true); why == "" {
				why = check(s.Rhs, false)
			}
		case *ast.Do:
			why = v.confined(s.Body, c, env)
		case *ast.Call:
			if why = v.opaque(s); why != "" {
				break
			}
			// what the callee writes besides its actuals: the array
			// under its own name, a COMMON member
			callee := v.Prog.Proc(s.Name)
			if sym := callee.Symbols.Lookup(c.arr); (sym == nil || sym.Common != "") && v.summaries().Summaries[s.Name].Mod.Has(c.arr) {
				why = v.writes(s, c.arr)
				break
			}
			sub := map[string]ast.Expr{}
			for i, a := range s.Args {
				sub[callee.Params[i]] = ast.Subst(a, env)
			}
			why = v.confined(callee.Body, c, sub)
		default:
			why = "update loop contains " + v.label(st)
		}
		if why != "" {
			return why
		}
	}
	return ""
}

// column checks one reference to the pivot array.
func (c columns) column(r *ast.ArrayRef, write bool, env map[string]ast.Expr) string {
	if len(r.Subs) <= c.pivot {
		return fmt.Sprintf("reference %s lacks the pivot dimension", r.Name)
	}
	sub := r.Subs[c.pivot]
	if env != nil {
		sub = ast.Subst(sub, env)
	}
	v, coef, off, ok := depend.LinearSubscript(sub, nil)
	switch {
	case !ok || v == "" || off != 0:
		return fmt.Sprintf("pivot subscript %s is not a bare column index", sub)
	case v == c.jvar && coef == 1, !write && v == c.kvar && coef == 1:
		return ""
	case write:
		return fmt.Sprintf("update writes column %s of %s", sub, c.arr)
	}
	return fmt.Sprintf("update reads column %s of %s", sub, c.arr)
}

// uses counts the references to the variable or array name in body.
func uses(body []ast.Stmt, name string) (n int) {
	ast.WalkExprs(body, func(e ast.Expr) {
		if named(e, name) {
			n++
		}
	})
	return n
}
