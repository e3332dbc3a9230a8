package ast

import "fmt"

// Index lists what one unit holds, once, in source order: every
// statement with the DO loops around it, every array reference, every
// scalar definition and every CALL. It is built from the unit's text
// alone (NewIndex): nothing in it depends on a constant environment, so
// affine forms, Do.Norm and dependence levels stay with the passes that
// compute them. Like a published unit, an index is never written.
type Index struct {
	// Stmts is every statement in preorder: a statement before those
	// nested in it, a DO's body, an IF's THEN and then its ELSE.
	Stmts []Site
	// Refs is every array reference, by statement (RefsOf); within one
	// statement in the preorder of its expressions, as StmtExprs lists
	// them (an assignment's left-hand side, its subscripts, the
	// right-hand side).
	Refs []Ref
	// Defs is every scalar definition: an assignment's target, a DO's
	// index and a name passed whole to a CALL, which may define it.
	Defs []Def
	// Calls is the position in Stmts of every CALL.
	Calls []int
}

// Site is one statement of an index.
type Site struct {
	Stmt Stmt
	// Nest is the DO loops around Stmt, outermost first (a DO's own
	// bounds are outside it). The statements of one loop body share one
	// slice: it is read-only.
	Nest []*Do
	// End is the position after the statements nested in Stmt: they are
	// Stmts[i+1:End].
	End  int
	refs int // the position in Refs of the statement's first reference
}

// Ref is one array reference. Lhs marks one in an assignment's
// left-hand side, Write the left-hand side itself.
type Ref struct {
	*ArrayRef
	Lhs, Write bool
}

// Def is one scalar definition; its statement, Stmts[At], says how.
type Def struct {
	Name string
	At   int
}

// NewIndex indexes u.
func NewIndex(u *Procedure) *Index {
	stmts, refs := 0, 0
	WalkStmts(u.Body, func(Stmt) bool { stmts++; return true })
	WalkExprs(u.Body, func(e Expr) {
		if _, ok := e.(*ArrayRef); ok {
			refs++
		}
	})
	ix := &Index{Stmts: make([]Site, 0, stmts), Refs: make([]Ref, 0, refs), Defs: make([]Def, 0, stmts)}
	ix.add(u.Body, nil, nil)
	return ix
}

// add indexes body under nest; exprs is scratch.
func (ix *Index) add(body []Stmt, nest []*Do, exprs []Expr) []Expr {
	for _, s := range body {
		k := len(ix.Stmts)
		ix.Stmts = append(ix.Stmts, Site{Stmt: s, Nest: nest, refs: len(ix.Refs)})
		exprs = appendExprs(exprs[:0], s)
		_, asg := s.(*Assign)
		for i, e := range exprs {
			WalkExpr(e, func(e Expr) {
				if x, ok := e.(*ArrayRef); ok {
					ix.Refs = append(ix.Refs, Ref{ArrayRef: x, Lhs: asg && i == 0})
				}
			})
		}
		switch st := s.(type) {
		case *Assign:
			switch lhs := st.Lhs.(type) {
			case *ArrayRef:
				ix.Refs[ix.Stmts[k].refs].Write = true
			case *Ident:
				ix.Defs = append(ix.Defs, Def{Name: lhs.Name, At: k})
			}
		case *Do:
			ix.Defs = append(ix.Defs, Def{Name: st.Var, At: k})
			// a fresh slice, never appended to again: the body keeps it
			exprs = ix.add(st.Body, append(nest[:len(nest):len(nest)], st), exprs)
		case *If:
			exprs = ix.add(st.Then, nest, exprs)
			exprs = ix.add(st.Else, nest, exprs)
		case *Call:
			ix.Calls = append(ix.Calls, k)
			for _, a := range st.Args {
				if id, ok := a.(*Ident); ok {
					ix.Defs = append(ix.Defs, Def{Name: id.Name, At: k})
				}
			}
		}
		ix.Stmts[k].End = len(ix.Stmts)
	}
	return exprs
}

// RefsOf returns the references of the statement at position k, not
// those of the statements nested in it.
func (ix *Index) RefsOf(k int) []Ref {
	end := len(ix.Refs)
	if k+1 < len(ix.Stmts) {
		end = ix.Stmts[k+1].refs
	}
	return ix.Refs[ix.Stmts[k].refs:end]
}

// RefsAt is RefsOf for a walk that counts the index's positions itself:
// s must be the statement at k, or the walk has left the index's
// preorder and RefsAt panics rather than hand it another statement's
// references.
func (ix *Index) RefsAt(k int, s Stmt) []Ref {
	if ix.Stmts[k].Stmt != s {
		panic(fmt.Sprintf("ast: line %d is not statement %d of the index", s.Pos().Line, k))
	}
	return ix.RefsOf(k)
}
