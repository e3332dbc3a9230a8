// Package acg builds the call graph of §5.1 (Figure 5): its nodes are
// procedures, its edges are call sites, each binding the callee's
// formals to the caller's actuals, and building it checks the
// storage-association contract (contract.go). The loops around a call,
// which Figure 5 also records, are read from the caller's body by the
// passes that place code in them (comm, partition).
package acg

import (
	"fmt"
	"sort"

	"fortd/internal/ast"
)

// ArgBinding relates a callee formal parameter to the actual passed at
// one call site.
type ArgBinding struct {
	Formal string
	// Actual is the actual-parameter expression.
	Actual ast.Expr
	// ActualName is the bare variable name when Actual is an identifier
	// or an array element ("" otherwise).
	ActualName string
}

// CallSite is one edge of the ACG.
type CallSite struct {
	Caller   *Node
	Callee   *Node
	Stmt     *ast.Call
	Bindings []ArgBinding
}

// Pos returns the source position of the call.
func (c *CallSite) Pos() ast.Position { return c.Stmt.Pos() }

// CallerName returns the caller's name for the callee's name: a formal's
// bare actual ("" for an expression), a COMMON member's own name, or "".
func (c *CallSite) CallerName(name string) string {
	switch sym := c.Callee.Lookup(name); {
	case sym == nil:
		return ""
	case sym.IsFormal:
		return c.Bindings[sym.FormalIndex].ActualName
	case sym.Common != "":
		return name
	}
	return ""
}

// Node is one procedure in the ACG.
type Node struct {
	Proc    *ast.Procedure
	Callers []*CallSite
	Calls   []*CallSite
	// External is set when the procedure calls one the program does
	// not define.
	External bool
	graph    *Graph
}

// Lookup returns name's symbol in n's procedure or, for a COMMON member
// the procedure does not declare, the program-wide one (Graph.Commons).
func (n *Node) Lookup(name string) *ast.Symbol {
	if s := n.Proc.Symbols.Lookup(name); s != nil || n.graph == nil {
		return s
	}
	return n.graph.Commons[name]
}

// Name returns the procedure name.
func (n *Node) Name() string { return n.Proc.Name }

// Site returns n's call site for the statement call (nil when n is nil
// or the statement is not one of its calls).
func (n *Node) Site(call *ast.Call) *CallSite {
	if n == nil {
		return nil
	}
	for _, s := range n.Calls {
		if s.Stmt == call {
			return s
		}
	}
	return nil
}

// Graph is the call graph of a whole program.
type Graph struct {
	Program *ast.Program
	Nodes   map[string]*Node
	// Commons maps each COMMON member's name to its declaration, bounds
	// evaluated (nil: the program has no COMMON).
	Commons map[string]*ast.Symbol
	// order caches a topological order (callers before callees).
	order []*Node
}

// Build constructs the ACG, resolving every call to a program unit, and
// rejects a program that breaks the storage-association contract
// (contract.go) or recurses. Calls to undefined names are treated as
// external library routines and ignored (the paper's F(...) intrinsics
// are function calls, not CALL statements).
func Build(prog *ast.Program) (*Graph, error) {
	g := &Graph{Program: prog, Nodes: make(map[string]*Node, len(prog.Units))}
	envs := make(map[string]ast.MapEnv, len(prog.Units))
	for _, u := range prog.Units {
		g.Nodes[u.Name] = &Node{Proc: u, graph: g}
		envs[u.Name] = u.Constants()
	}
	var err error
	if g.Commons, err = checkCommons(prog, envs); err != nil {
		return nil, err
	}
	for _, u := range prog.Units {
		if u.ScalarUse != "" {
			return nil, errAt(u, u.ScalarUseLine, "the array %s is used as a scalar", u.ScalarUse)
		}
		caller := g.Nodes[u.Name]
		ast.WalkStmts(u.Body, func(s ast.Stmt) bool {
			// the parser reads any name(...) = as an array element
			if asg, ok := s.(*ast.Assign); ok && err == nil {
				if ref, ok := asg.Lhs.(*ast.ArrayRef); ok {
					if sym := u.Symbols.Lookup(ref.Name); sym == nil || sym.Kind != ast.SymArray {
						err = errAt(u, asg.Pos().Line, "%s is assigned an element but is not a declared array", ref.Name)
					}
				}
			}
			st, ok := s.(*ast.Call)
			if !ok || err != nil {
				return err == nil
			}
			callee := g.Nodes[st.Name]
			if callee == nil {
				caller.External = true
			} else if err = conform(u, envs[u.Name], callee.Proc, envs[callee.Name()], st); err == nil {
				site := &CallSite{Caller: caller, Callee: callee, Stmt: st, Bindings: bindArgs(callee.Proc, st)}
				caller.Calls = append(caller.Calls, site)
				callee.Callers = append(callee.Callers, site)
			}
			return true
		})
	}
	if err != nil {
		return nil, err
	}
	if err := g.computeOrder(); err != nil {
		return nil, err
	}
	return g, nil
}

// bindArgs binds each formal to its actual (conform has checked that
// there is one actual per formal).
func bindArgs(callee *ast.Procedure, call *ast.Call) []ArgBinding {
	out := make([]ArgBinding, len(call.Args))
	for i, a := range call.Args {
		out[i] = ArgBinding{Formal: callee.Params[i], Actual: a}
		switch a := a.(type) {
		case *ast.Ident:
			out[i].ActualName = a.Name
		case *ast.ArrayRef:
			out[i].ActualName = a.Name
		}
	}
	return out
}

// computeOrder produces a topological order with callers before callees
// and rejects recursion (the paper's single-pass compilation requires a
// program without recursion).
func (g *Graph) computeOrder() error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int, len(g.Nodes))
	var order []*Node
	var visit func(n *Node) error
	visit = func(n *Node) error {
		color[n.Name()] = gray
		// deterministic order of callees
		callees := make([]*Node, 0, len(n.Calls))
		seen := map[string]bool{}
		for _, c := range n.Calls {
			if !seen[c.Callee.Name()] {
				seen[c.Callee.Name()] = true
				callees = append(callees, c.Callee)
			}
		}
		sort.Slice(callees, func(i, j int) bool { return callees[i].Name() < callees[j].Name() })
		for _, c := range callees {
			switch color[c.Name()] {
			case gray:
				return fmt.Errorf("acg: recursion detected through %s → %s", n.Name(), c.Name())
			case white:
				if err := visit(c); err != nil {
					return err
				}
			}
		}
		color[n.Name()] = black
		order = append(order, n)
		return nil
	}
	// roots first (main), then any unreached units
	if main := g.Program.Main(); main != nil {
		if err := visit(g.Nodes[main.Name]); err != nil {
			return err
		}
	}
	names := make([]string, 0, len(g.Nodes))
	for name := range g.Nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if color[name] == white {
			if err := visit(g.Nodes[name]); err != nil {
				return err
			}
		}
	}
	// order currently lists callees before callers; reverse it
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	g.order = order
	return nil
}

// TopoOrder returns the procedures with every caller before its callees
// (the order used by top-down problems such as reaching decompositions).
func (g *Graph) TopoOrder() []*Node { return g.order }

// ReverseTopoOrder returns the procedures with every callee before its
// callers (the order used by the bottom-up code generation pass).
func (g *Graph) ReverseTopoOrder() []*Node {
	out := make([]*Node, len(g.order))
	for i, n := range g.order {
		out[len(g.order)-1-i] = n
	}
	return out
}

// Rebuild reconstructs the ACG after program transformation (cloning).
func (g *Graph) Rebuild() error {
	ng, err := Build(g.Program)
	if err != nil {
		return err
	}
	*g = *ng
	return nil
}
