package codegen

import "fortd/internal/ast"

// The control-flow graph and iterative backward solver that answered
// liveIndices' question before the structural walk did, kept as the
// walk's oracle: every statement is a node, a loop head has its body
// and the node after the loop as successors, the end of a body goes
// back to its head, RETURN goes to the exit, and In = Gen ∪ (Out \ Kill)
// is iterated to a fixed point over the nodes reachable from the entry.

type flowNode struct {
	id    int
	stmt  ast.Stmt
	succs []*flowNode
	loop  *ast.Do // the loop whose head this node is
}

type flowGraph struct {
	entry, exit *flowNode
	nodes       []*flowNode
}

func (g *flowGraph) node(s ast.Stmt) *flowNode {
	n := &flowNode{id: len(g.nodes), stmt: s}
	g.nodes = append(g.nodes, n)
	return n
}

func link(from, to *flowNode) { from.succs = append(from.succs, to) }

func buildFlow(proc *ast.Procedure) *flowGraph {
	g := &flowGraph{}
	g.entry, g.exit = g.node(nil), g.node(nil)
	if last := g.seq(proc.Body, g.entry); last != nil {
		link(last, g.exit)
	}
	return g
}

// seq threads body after prev and returns the node control falls out
// of, nil when it cannot (after RETURN). Statements control cannot
// reach still get nodes, hung off a fresh node with no predecessor.
func (g *flowGraph) seq(body []ast.Stmt, prev *flowNode) *flowNode {
	cur := prev
	for _, s := range body {
		if cur == nil {
			cur = g.node(nil)
		}
		switch st := s.(type) {
		case *ast.Do:
			head := g.node(st)
			head.loop = st
			link(cur, head)
			if end := g.seq(st.Body, head); end != nil {
				link(end, head)
			}
			cur = g.node(nil)
			link(head, cur) // a loop head's exit is its last successor
		case *ast.If:
			cond := g.node(st)
			link(cur, cond)
			join, preds := g.node(nil), 0
			// without an ELSE, seq returns cond: the fall-through path
			for _, branch := range [][]ast.Stmt{st.Then, st.Else} {
				if end := g.seq(branch, cond); end != nil {
					link(end, join)
					preds++
				}
			}
			cur = join
			if preds == 0 {
				cur = nil
			}
		case *ast.Return:
			n := g.node(st)
			link(cur, n)
			link(n, g.exit)
			cur = nil
		default:
			n := g.node(st)
			link(cur, n)
			cur = n
		}
	}
	return cur
}

// gen and kill are the live-scalar problem: a node reads the names its
// statement evaluates (a loop head its bounds) and defines the scalar it
// assigns or, as a loop head, its loop's index.
func gen(n *flowNode) map[string]bool {
	out := map[string]bool{}
	exprs := ast.StmtExprs(n.stmt)
	if st, ok := n.stmt.(*ast.Assign); ok {
		if _, scalar := st.Lhs.(*ast.Ident); scalar {
			exprs = exprs[1:]
		}
	}
	for _, e := range exprs {
		ast.WalkExpr(e, func(e ast.Expr) {
			if id, ok := e.(*ast.Ident); ok {
				out[id.Name] = true
			}
		})
	}
	return out
}

func kill(n *flowNode) string {
	switch st := n.stmt.(type) {
	case *ast.Do:
		return st.Var
	case *ast.Assign:
		if id, ok := st.Lhs.(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
}

// exitIndices is the DO indices a caller may read: those that are
// formals or in COMMON, in a subroutine.
func exitIndices(proc *ast.Procedure) map[string]bool {
	exit := map[string]bool{}
	ast.WalkStmts(proc.Body, func(s ast.Stmt) bool {
		if d, ok := s.(*ast.Do); ok {
			if sym := proc.Symbols.Lookup(d.Var); !proc.IsMain && sym != nil && (sym.IsFormal || sym.Common != "") {
				exit[d.Var] = true
			}
		}
		return true
	})
	return exit
}

// oracleLiveAfter is liveAfter by solving the whole live-scalar
// problem of proc, with exit live at its exit.
func oracleLiveAfter(proc *ast.Procedure, exit map[string]bool) map[*ast.Do]bool {
	g := buildFlow(proc)
	// postorder from the entry: successors before predecessors, the
	// order a backward problem converges fastest in
	var order []*flowNode
	seen := make([]bool, len(g.nodes))
	var dfs func(n *flowNode)
	dfs = func(n *flowNode) {
		seen[n.id] = true
		for _, s := range n.succs {
			if !seen[s.id] {
				dfs(s)
			}
		}
		order = append(order, n)
	}
	dfs(g.entry)
	in := make([]map[string]bool, len(g.nodes))
	for i := range in {
		in[i] = map[string]bool{}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range order {
			out := map[string]bool{}
			if n == g.exit {
				out = exit
			}
			for _, s := range n.succs {
				for m := range in[s.id] {
					out[m] = true
				}
			}
			k, live := kill(n), gen(n)
			for m := range out {
				if m != k {
					live[m] = true
				}
			}
			if len(live) != len(in[n.id]) {
				in[n.id] = live
				changed = true
			}
		}
	}
	res := map[*ast.Do]bool{}
	for _, n := range g.nodes {
		if n.loop != nil {
			res[n.loop] = in[n.succs[len(n.succs)-1].id][n.loop.Var]
		}
	}
	return res
}
