// Package dataflow provides a generic iterative data-flow solver over
// control-flow graphs, plus the two classical instances the Fortran D
// compiler builds on: reaching definitions (used for reaching
// decompositions, §5.2) and live variables (used for live
// decompositions, §6.1).
package dataflow

import (
	"fortd/internal/ast"
	"fortd/internal/cfg"
)

// Set is a set of definition/use identifiers.
type Set map[string]struct{}

// NewSet builds a set from its members.
func NewSet(members ...string) Set {
	s := make(Set, len(members))
	for _, m := range members {
		s[m] = struct{}{}
	}
	return s
}

// Has reports membership.
func (s Set) Has(m string) bool {
	_, ok := s[m]
	return ok
}

// Clone copies the set.
func (s Set) Clone() Set {
	out := make(Set, len(s))
	for m := range s {
		out[m] = struct{}{}
	}
	return out
}

// Equal reports set equality.
func (s Set) Equal(o Set) bool {
	if len(s) != len(o) {
		return false
	}
	for m := range s {
		if !o.Has(m) {
			return false
		}
	}
	return true
}

// Union adds all of o to s, reporting whether s changed.
func (s Set) Union(o Set) bool {
	changed := false
	for m := range o {
		if !s.Has(m) {
			s[m] = struct{}{}
			changed = true
		}
	}
	return changed
}

// Minus returns s \ o.
func (s Set) Minus(o Set) Set {
	out := make(Set)
	for m := range s {
		if !o.Has(m) {
			out[m] = struct{}{}
		}
	}
	return out
}

// Members returns the elements (unordered).
func (s Set) Members() []string {
	out := make([]string, 0, len(s))
	for m := range s {
		out = append(out, m)
	}
	return out
}

// Direction of propagation.
type Direction int

const (
	Forward Direction = iota
	Backward
)

// GenKill supplies per-node GEN and KILL sets for a union-meet
// bit-vector problem.
type GenKill interface {
	Gen(n *cfg.Node) Set
	Kill(n *cfg.Node) Set
}

// LiveScalars is the live-variable problem over scalar names, solved
// Backward: a node uses the identifiers its statement evaluates (a loop
// head its bounds) and defines the scalar it assigns or, as a loop
// head, the index of its loop.
type LiveScalars struct{}

func (LiveScalars) Gen(n *cfg.Node) Set {
	out := NewSet()
	exprs := ast.StmtExprs(n.Stmt)
	if st, ok := n.Stmt.(*ast.Assign); ok {
		if _, scalar := st.Lhs.(*ast.Ident); scalar {
			exprs = exprs[1:] // assigned, not read
		}
	}
	for _, e := range exprs {
		ast.WalkExpr(e, func(e ast.Expr) {
			if id, ok := e.(*ast.Ident); ok {
				out[id.Name] = struct{}{}
			}
		})
	}
	return out
}

func (LiveScalars) Kill(n *cfg.Node) Set {
	switch st := n.Stmt.(type) {
	case *ast.Do:
		return NewSet(st.Var)
	case *ast.Assign:
		if id, ok := st.Lhs.(*ast.Ident); ok {
			return NewSet(id.Name)
		}
	}
	return NewSet()
}

// Result holds the fixed-point In/Out sets per node (indexed by node ID).
type Result struct {
	In  []Set
	Out []Set
}

// Solve runs the iterative worklist algorithm for a union-meet GEN/KILL
// problem in the given direction, with boundary the initial set at the
// entry (forward) or exit (backward).
func Solve(g *cfg.Graph, p GenKill, dir Direction, boundary Set) *Result {
	n := len(g.Nodes)
	res := &Result{In: make([]Set, n), Out: make([]Set, n)}
	for i := 0; i < n; i++ {
		res.In[i] = NewSet()
		res.Out[i] = NewSet()
	}
	if dir == Forward {
		res.In[g.Entry.ID] = boundary.Clone()
	} else {
		res.Out[g.Exit.ID] = boundary.Clone()
	}

	order := g.ReversePostorder()
	if dir == Backward {
		rev := make([]*cfg.Node, len(order))
		for i, nd := range order {
			rev[len(order)-1-i] = nd
		}
		order = rev
	}

	for changed := true; changed; {
		changed = false
		for _, nd := range order {
			if dir == Forward {
				in := res.In[nd.ID]
				if nd != g.Entry {
					in = NewSet()
					for _, pr := range nd.Preds {
						in.Union(res.Out[pr.ID])
					}
					res.In[nd.ID] = in
				}
				out := in.Minus(p.Kill(nd))
				out.Union(p.Gen(nd))
				if !out.Equal(res.Out[nd.ID]) {
					res.Out[nd.ID] = out
					changed = true
				}
			} else {
				out := res.Out[nd.ID]
				if nd != g.Exit {
					out = NewSet()
					for _, sc := range nd.Succs {
						out.Union(res.In[sc.ID])
					}
					res.Out[nd.ID] = out
				}
				in := out.Minus(p.Kill(nd))
				in.Union(p.Gen(nd))
				if !in.Equal(res.In[nd.ID]) {
					res.In[nd.ID] = in
					changed = true
				}
			}
		}
	}
	return res
}
