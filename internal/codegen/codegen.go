// Package codegen generates the SPMD node program (§3 step 7): it
// instantiates the data and computation partitions (reduced loop
// bounds, ownership guards), inserts the optimized communication
// (vectorized send/recv pairs, broadcasts, allgathers), places the
// dynamic-decomposition remapping calls, and — for the baselines the
// paper compares against — emits run-time resolution code (Figure 3)
// and immediate-instantiation code (Figure 12).
package codegen

import (
	"fmt"
	"slices"

	"fortd/internal/ast"
	"fortd/internal/comm"
	"fortd/internal/livedecomp"
	"fortd/internal/partition"
)

// Strategy selects the compilation strategy.
type Strategy int

const (
	// StrategyInterproc is the paper's contribution: interprocedural
	// analysis with delayed instantiation.
	StrategyInterproc Strategy = iota
	// StrategyRuntime is the Figure 3 baseline: ownership and
	// communication resolved per reference at run time.
	StrategyRuntime
	// StrategyImmediate is the Figure 12 baseline: compile-time
	// analysis but no delayed instantiation across procedures.
	StrategyImmediate
)

func (s Strategy) String() string {
	switch s {
	case StrategyInterproc:
		return "interprocedural"
	case StrategyRuntime:
		return "runtime-resolution"
	case StrategyImmediate:
		return "immediate"
	}
	return "?"
}

// Input carries one procedure's analyses into code generation.
type Input struct {
	Proc   *ast.Procedure
	Plan   *partition.Plan
	Comm   *comm.Result
	Remaps *livedecomp.Placement
	DistOf partition.DistOf
	Env    ast.Env
	P      int
}

// Result is the bookkeeping of one generated procedure.
type Result struct {
	// MessagesInserted counts communication statements emitted.
	MessagesInserted int
	// GuardsInserted counts ownership guards emitted.
	GuardsInserted int
	// LoopsReduced counts loops whose bounds were rewritten.
	LoopsReduced int
	// RemapsInserted counts remapping calls emitted.
	RemapsInserted int
	// MessagesAggregated counts duplicate messages removed (§5.4).
	MessagesAggregated int
	// Reductions counts recognized scalar reductions.
	Reductions int
}

// anchors collects generated statements keyed to insertion points.
type anchors struct {
	beforeStmt map[ast.Stmt][]ast.Stmt
	afterStmt  map[ast.Stmt][]ast.Stmt
	atLoopTop  map[*ast.Do][]ast.Stmt
	beforeLoop map[*ast.Do][]ast.Stmt
	afterLoop  map[*ast.Do][]ast.Stmt
	prologue   []ast.Stmt
	liveIndex  map[*ast.Do]bool // loops whose index is read after them
}

func newAnchors() *anchors {
	return &anchors{
		beforeStmt: map[ast.Stmt][]ast.Stmt{},
		afterStmt:  map[ast.Stmt][]ast.Stmt{},
		atLoopTop:  map[*ast.Do][]ast.Stmt{},
		beforeLoop: map[*ast.Do][]ast.Stmt{},
		afterLoop:  map[*ast.Do][]ast.Stmt{},
	}
}

// Generate rewrites one procedure into its SPMD form and returns the new
// body. The input procedure is not modified: statements emitted
// unchanged, and the bounds of loops and the conditions of branches, are
// shared with it.
func Generate(in *Input) ([]ast.Stmt, *Result, error) {
	res := &Result{}
	a := newAnchors()

	// my$p = myproc()
	a.prologue = append(a.prologue, &ast.Assign{
		Lhs: ast.Id(partition.MyP),
		Rhs: &ast.FuncCall{Name: "myproc"},
	})

	// communication statements; the halves of a pipelined shift go
	// around their loop last, when everything else is anchored
	recvs, sends := map[*ast.Do][]ast.Stmt{}, map[*ast.Do][]ast.Stmt{}
	pipelined := func(loop *ast.Do, pair []ast.Stmt) {
		sends[loop] = append(sends[loop], pair[0])
		recvs[loop] = append(recvs[loop], pair[1])
	}
	if in.Comm != nil {
		for _, acc := range in.Comm.Accesses {
			if acc.Delay || acc.Kind == comm.KLocal {
				continue
			}
			stmts, err := emitAccess(in, acc)
			if err != nil {
				return nil, nil, err
			}
			stampPos(stmts, acc.Stmt.Pos())
			res.MessagesInserted += len(stmts)
			switch {
			case acc.Pipelined:
				pipelined(acc.AtLoop, stmts)
			case acc.AtCall():
				a.beforeStmt[acc.Stmt] = append(a.beforeStmt[acc.Stmt], stmts...)
			default:
				anchorComm(a, stmts, acc.AtLoop, acc.Nest, acc.Stmt)
			}
		}
	}

	// remapping calls, attributed to their anchor's source line; a
	// remap runs before the messages placed at its anchor, which read
	// under the layout it sets
	if in.Remaps != nil {
		emitRemaps := func(ops []*livedecomp.Op, pos ast.Position) []ast.Stmt {
			out := make([]ast.Stmt, 0, len(ops))
			for _, op := range ops {
				rs := remapStmt(in, op)
				rs.(*ast.Remap).Position = pos
				out = append(out, rs)
				res.RemapsInserted++
			}
			return out
		}
		for s, ops := range in.Remaps.BeforeStmt {
			a.beforeStmt[s] = append(emitRemaps(ops, s.Pos()), a.beforeStmt[s]...)
		}
		for s, ops := range in.Remaps.AfterStmt {
			a.afterStmt[s] = append(a.afterStmt[s], emitRemaps(ops, s.Pos())...)
		}
		for l, ops := range in.Remaps.BeforeLoop {
			a.beforeLoop[l] = append(emitRemaps(ops, l.Pos()), a.beforeLoop[l]...)
		}
		for l, ops := range in.Remaps.AfterLoop {
			a.afterLoop[l] = append(a.afterLoop[l], emitRemaps(ops, l.Pos())...)
		}
	}

	// recognized reductions: accumulate into a private partial inside
	// the reduced loop, then combine globally after it
	replace := map[ast.Stmt]ast.Stmt{}
	if in.Plan != nil {
		for _, item := range in.Plan.Items {
			if item.Red == nil || item.Loop == nil {
				continue
			}
			if _, ok := in.Plan.LoopBounds[item.Loop]; !ok {
				return nil, nil, errUnsupported("reduction loop for %s lost its bounds reduction", item.Red.Var)
			}
			partial := item.Red.Var + "$red"
			newRhs := ast.Subst(item.Stmt.Rhs, map[string]ast.Expr{item.Red.Var: ast.Id(partial)})
			replace[item.Stmt] = &ast.Assign{Lhs: ast.Id(partial), Rhs: newRhs}

			identity, combined := 0.0, ast.Add(ast.Id(item.Red.Var), ast.Id(partial))
			if item.Red.Op != "+" { // MAX or MIN
				if identity = 1e300; item.Red.Op == "MAX" {
					identity = -1e300
				}
				combined = &ast.FuncCall{Name: item.Red.Op, Args: []ast.Expr{ast.Id(item.Red.Var), ast.Id(partial)}}
			}
			a.beforeLoop[item.Loop] = append(a.beforeLoop[item.Loop],
				&ast.Assign{Lhs: ast.Id(partial), Rhs: &ast.RealLit{Value: identity}})
			combine := &ast.Assign{Lhs: ast.Id(item.Red.Var), Rhs: combined}
			gr := &ast.GlobalReduce{Var: partial, Op: item.Red.Op}
			gr.Position = item.Loop.Pos()
			a.afterLoop[item.Loop] = append(a.afterLoop[item.Loop], gr, combine)
			res.Reductions++
			res.MessagesInserted++
		}
	}

	// guards per partitioning item
	guards := map[ast.Stmt]ast.Expr{}
	if in.Plan != nil {
		for _, item := range in.Plan.Items {
			if !item.Guard || item.C == nil {
				continue
			}
			// the owner of the array element on the left, of what the
			// partition variable selects for a private scalar, or of what
			// the actual bound to the callee's formal selects for a call
			if item.Site != nil {
				var idx ast.Expr = ast.Int(1)
				if item.Actual != nil {
					idx = ast.CloneExpr(item.Actual)
				}
				guards[item.Site.Stmt] = partition.GuardExpr(item.C, idx)
			} else if lhs, ok := item.Stmt.Lhs.(*ast.ArrayRef); ok {
				idx := ast.CloneExpr(lhs.Subs[item.DistDim])
				guards[item.Stmt] = ast.Cmp(ast.OpEQ,
					partition.OwnerExpr(item.Dist, idx), ast.Id(partition.MyP))
			} else {
				guards[item.Stmt] = partition.GuardExpr(item.C, ast.Id(item.Sub.Var))
			}
			res.GuardsInserted++
		}
	}

	// the recvs end the loop's prologue (the predecessor needs this
	// processor's share of the messages placed there to get into its own
	// loop); the sends come first after it, in the recvs' order (the
	// successor waits for them before it joins anything collective)
	for loop, stmts := range recvs {
		a.beforeLoop[loop] = append(a.beforeLoop[loop], stmts...)
		a.afterLoop[loop] = append(sends[loop], a.afterLoop[loop]...)
	}

	// aggregation (§5.4): duplicate messages to the same destination at
	// the same program point collapse to one
	res.MessagesAggregated += aggregateAnchors(a)
	res.MessagesInserted -= res.MessagesAggregated

	if in.Plan != nil && len(in.Plan.LoopBounds) > 0 {
		a.liveIndex = liveIndices(in.Proc)
	}
	body := rewriteBody(in, a, guards, replace, in.Proc.Body, res)
	return append(a.prologue, body...), res, nil
}

// aggregateAnchors removes textually identical communication statements
// anchored at the same insertion point, returning how many were
// dropped. (Two references to the same nonlocal element in one
// statement otherwise generate two identical broadcasts.) "Textually
// identical" is ast.StmtEqual: the statements would print the same. Two
// broadcasts at one point take their receivers from the loop they are
// placed before (receivers), so that union is the "to" clause of either.
func aggregateAnchors(a *anchors) int {
	dropped := 0
	dedupe := func(stmts []ast.Stmt) []ast.Stmt {
		out := stmts[:0]
	next:
		for _, s := range stmts {
			if isCommStmt(s) {
				for _, kept := range out {
					if ast.StmtEqual(kept, s) {
						dropped++
						continue next
					}
				}
			}
			out = append(out, s)
		}
		return out
	}
	for _, m := range []map[ast.Stmt][]ast.Stmt{a.beforeStmt, a.afterStmt} {
		for k, v := range m {
			m[k] = dedupe(v)
		}
	}
	for _, m := range []map[*ast.Do][]ast.Stmt{a.atLoopTop, a.beforeLoop, a.afterLoop} {
		for k, v := range m {
			m[k] = dedupe(v)
		}
	}
	a.prologue = dedupe(a.prologue)
	return dropped
}

func isCommStmt(s ast.Stmt) bool {
	switch st := s.(type) {
	case *ast.Message:
		return true
	case *ast.If:
		// guarded send/recv pairs emitted by emitShift
		if len(st.Then) == 1 && len(st.Else) == 0 {
			return isCommStmt(st.Then[0])
		}
	}
	return false
}

// stampPos attributes generated communication statements (and the
// guards wrapping them) to the source statement whose compilation
// placed them, so trace events can name the originating line.
func stampPos(stmts []ast.Stmt, pos ast.Position) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *ast.Message:
			st.Position = pos
		case *ast.GlobalReduce:
			st.Position = pos
		case *ast.Remap:
			st.Position = pos
		case *ast.If:
			st.Position = pos
			stampPos(st.Then, pos)
			stampPos(st.Else, pos)
		}
	}
}

// anchorComm places generated comm statements. A message constrained to
// level ℓ is anchored just before its consumer at that level: before
// the next-deeper loop when the consumer sits inside one (hoisted out
// of the deeper loops — message vectorization), or directly before the
// consuming statement. Unconstrained messages hoist before the
// outermost enclosing loop.
func anchorComm(a *anchors, stmts []ast.Stmt, atLoop *ast.Do, nest []*ast.Do, stmt ast.Stmt) {
	switch {
	case atLoop != nil:
		for i, l := range nest {
			if l != atLoop {
				continue
			}
			if i+1 < len(nest) {
				a.beforeLoop[nest[i+1]] = append(a.beforeLoop[nest[i+1]], stmts...)
			} else if stmt != nil {
				a.beforeStmt[stmt] = append(a.beforeStmt[stmt], stmts...)
			} else {
				a.atLoopTop[atLoop] = append(a.atLoopTop[atLoop], stmts...)
			}
			return
		}
		a.atLoopTop[atLoop] = append(a.atLoopTop[atLoop], stmts...)
	case len(nest) > 0:
		a.beforeLoop[nest[0]] = append(a.beforeLoop[nest[0]], stmts...)
	case stmt != nil:
		a.beforeStmt[stmt] = append(a.beforeStmt[stmt], stmts...)
	default:
		a.prologue = append(a.prologue, stmts...)
	}
}

// rewriteBody produces the transformed statement list.
func rewriteBody(in *Input, a *anchors, guards map[ast.Stmt]ast.Expr, replace map[ast.Stmt]ast.Stmt, body []ast.Stmt, res *Result) []ast.Stmt {
	var out []ast.Stmt
	for _, s := range body {
		out = append(out, a.beforeStmt[s]...)
		switch st := s.(type) {
		case *ast.Decomposition, *ast.Align, *ast.Distribute:
			// directives are compiled away; remap calls were anchored
			// before them when needed
		case *ast.Do:
			out = append(out, a.beforeLoop[st]...)
			nl := &ast.Do{Var: st.Var, Lo: st.Lo, Hi: st.Hi, Step: st.Step}
			nl.Position = st.Pos()
			if in.Plan != nil {
				if c, ok := in.Plan.LoopBounds[st]; ok {
					if lo, hi, step, okB := partition.BoundExprs(c, st, in.Env); okB {
						nl.Lo, nl.Hi, nl.Step = lo, hi, step
						res.LoopsReduced++
						if a.liveIndex[st] {
							// what follows reads the index the whole loop
							// leaves: lo + trip, the step being 1
							fix := &ast.Assign{Lhs: ast.Id(st.Var), Rhs: ast.Max(st.Lo, ast.Add(st.Hi, ast.Int(1)))}
							a.afterLoop[st] = append([]ast.Stmt{fix}, a.afterLoop[st]...)
						}
					}
				}
			}
			inner := rewriteBody(in, a, guards, replace, st.Body, res)
			nl.Body = append(append([]ast.Stmt{}, a.atLoopTop[st]...), inner...)
			out = append(out, nl)
			out = append(out, a.afterLoop[st]...)
		case *ast.If:
			ni := &ast.If{Cond: st.Cond}
			ni.Position = st.Pos()
			ni.Then = rewriteBody(in, a, guards, replace, st.Then, res)
			ni.Else = rewriteBody(in, a, guards, replace, st.Else, res)
			out = append(out, ni)
		default:
			cp := s
			if r, ok := replace[s]; ok {
				cp = r
			}
			if g, ok := guards[s]; ok {
				wrapped := &ast.If{Cond: g, Then: []ast.Stmt{cp}}
				wrapped.Position = s.Pos()
				out = append(out, wrapped)
			} else {
				out = append(out, cp)
			}
		}
		out = append(out, a.afterStmt[s]...)
	}
	return out
}

// liveIndices returns the loops of proc whose index is live after
// them: it then holds the whole loop's exit value, which a processor
// that ran only its own iterations has to be given. An index that is a
// formal or in COMMON is live at a subroutine's exit, where its caller
// may read it. The walk runs only if proc names a DO index outside the
// loops binding it or has such an index.
func liveIndices(proc *ast.Procedure) map[*ast.Do]bool {
	free := map[string]int{}
	count := func(body []ast.Stmt, v string, n int) {
		ast.WalkExprs(body, func(e ast.Expr) {
			if id, ok := e.(*ast.Ident); ok && (v == "" || id.Name == v) {
				free[id.Name] += n
			}
		})
	}
	count(proc.Body, "", 1)
	var loops []*ast.Do
	exit := map[string]bool{} // what a caller may read
	ast.WalkStmts(proc.Body, func(s ast.Stmt) bool {
		if d, ok := s.(*ast.Do); ok {
			count(d.Body, d.Var, -1)
			loops = append(loops, d)
			if sym := proc.Symbols.Lookup(d.Var); !proc.IsMain && sym != nil && (sym.IsFormal || sym.Common != "") {
				exit[d.Var] = true
			}
		}
		return true
	})
	if len(exit) == 0 && !slices.ContainsFunc(loops, func(d *ast.Do) bool { return free[d.Var] != 0 }) {
		return nil
	}
	return liveAfter(proc.Body, loops, exit)
}

// liveAfter reports which of loops, the DO loops of body, have their
// index live after them, given the names live at body's exit.
func liveAfter(body []ast.Stmt, loops []*ast.Do, exit map[string]bool) map[*ast.Do]bool {
	out := map[*ast.Do]bool{}
	done := map[string]bool{}
	for _, d := range loops {
		if !done[d.Var] {
			done[d.Var] = true
			w := liveWalk{v: d.Var, exit: exit[d.Var], live: out}
			w.seq(body, w.exit, true)
		}
	}
	return out
}

// liveWalk is the liveness of one DO index v, walked backward over the
// structured body: each statement maps whether v is live after it to
// whether v is live before it. A loop binding v is marked in live when
// control reaches it and v is live after it.
type liveWalk struct {
	v    string
	exit bool // v is live at the procedure's exit
	live map[*ast.Do]bool
}

// seq returns whether v is live before body, given out, whether it is
// live after it; reach says whether control reaches body.
func (w *liveWalk) seq(body []ast.Stmt, out, reach bool) bool {
	end := len(body) // control never reaches body[end:]
	if i := slices.IndexFunc(body, stops); i >= 0 {
		end = i + 1
	}
	for i := len(body) - 1; i >= 0; i-- {
		out = w.stmt(body[i], out, reach && i < end)
	}
	return out
}

func (w *liveWalk) stmt(s ast.Stmt, out, reach bool) bool {
	switch st := s.(type) {
	case *ast.Return:
		out = w.exit
	case *ast.Assign:
		if id, ok := st.Lhs.(*ast.Ident); ok {
			return reads(w.v, st.Rhs) || out && id.Name != w.v
		}
	case *ast.If:
		other := out // without an ELSE, the fall-through path
		if len(st.Else) > 0 {
			other = w.seq(st.Else, out, reach)
		}
		out = w.seq(st.Then, out, reach) || other
	case *ast.Do:
		// the head reads the bounds and assigns the index; the loop may
		// run zero times, and its body's end goes back to the head
		head := reads(w.v, ast.StmtExprs(st)...)
		if st.Var == w.v {
			if reach && out {
				w.live[st] = true
			}
			w.seq(st.Body, head, reach)
			return head
		}
		head = head || out
		if !head {
			head = w.seq(st.Body, false, reach)
		}
		if head {
			w.seq(st.Body, true, reach)
		}
		return head
	}
	return reads(w.v, ast.StmtExprs(s)...) || out
}

// stops reports whether control cannot leave s at its end: a RETURN, or
// an IF whose branches both stop.
func stops(s ast.Stmt) bool {
	switch st := s.(type) {
	case *ast.Return:
		return true
	case *ast.If:
		return slices.ContainsFunc(st.Then, stops) && slices.ContainsFunc(st.Else, stops)
	}
	return false
}

// reads reports whether any of exprs names v.
func reads(v string, exprs ...ast.Expr) bool {
	found := false
	for _, e := range exprs {
		ast.WalkExpr(e, func(e ast.Expr) {
			if id, ok := e.(*ast.Ident); ok && id.Name == v {
				found = true
			}
		})
	}
	return found
}

// remapStmt materializes one remap operation.
func remapStmt(in *Input, op *livedecomp.Op) ast.Stmt {
	to := append([]ast.DistSpec(nil), op.To.Specs...)
	return &ast.Remap{Array: op.Array, To: to, InPlace: op.InPlace}
}

// errUnsupported flags generation gaps explicitly rather than emitting
// wrong code.
func errUnsupported(what string, args ...interface{}) error {
	return fmt.Errorf("codegen: unsupported: "+what, args...)
}
