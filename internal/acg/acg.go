// Package acg builds the augmented call graph (ACG) of §5.1 (Figure 5):
// a call graph whose nodes are procedures, whose edges are call sites,
// augmented with loop nodes and nesting edges recording which loops
// enclose each call, and with annotations binding formal parameters to
// the loop index variables (and their ranges) passed at call sites.
package acg

import (
	"fmt"
	"sort"

	"fortd/internal/ast"
)

// LoopInfo describes one loop that encloses a call site, with constant
// bounds where they could be evaluated.
type LoopInfo struct {
	Var      string
	Lo, Hi   int
	Step     int
	Constant bool // bounds and step evaluated to constants
	Loop     *ast.Do
}

func (l LoopInfo) String() string {
	if l.Constant {
		return fmt.Sprintf("%s=[%d:%d:%d]", l.Var, l.Lo, l.Hi, l.Step)
	}
	return l.Var + "=[?]"
}

// ArgBinding relates a callee formal parameter to the actual passed at
// one call site.
type ArgBinding struct {
	Formal string
	// Actual is the actual-parameter expression.
	Actual ast.Expr
	// ActualName is the bare variable name when Actual is an identifier
	// or whole-array reference ("" otherwise).
	ActualName string
	// LoopIndex is non-nil when the actual is the index variable of a
	// loop enclosing the call — the annotation the paper stores in the
	// ACG ("formal i in F1 is actually the index variable for a loop in
	// P1 that iterates from 1 to 100").
	LoopIndex *LoopInfo
}

// CallSite is one edge of the ACG.
type CallSite struct {
	ID       int
	Caller   *Node
	Callee   *Node
	Stmt     *ast.Call
	Nest     []LoopInfo // loops enclosing the call, outermost first
	Bindings []ArgBinding
}

// Pos returns the source position of the call.
func (c *CallSite) Pos() ast.Position { return c.Stmt.Pos() }

// Node is one procedure in the ACG.
type Node struct {
	Proc    *ast.Procedure
	Callers []*CallSite
	Calls   []*CallSite
	// External is set when the procedure calls one the program does
	// not define.
	External bool
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

// Graph is the augmented call graph of a whole program.
type Graph struct {
	Program *ast.Program
	Nodes   map[string]*Node
	Sites   []*CallSite
	// order caches a topological order (callers before callees).
	order []*Node
}

// Build constructs the ACG, resolving every call to a program unit.
// Calls to undefined names are treated as external library routines and
// ignored (the paper's F(...) intrinsics appear as function calls, not
// CALL statements, so this only affects genuinely external code).
func Build(prog *ast.Program) (*Graph, error) {
	g := &Graph{Program: prog, Nodes: make(map[string]*Node, len(prog.Units))}
	for _, u := range prog.Units {
		g.Nodes[u.Name] = &Node{Proc: u}
	}
	for _, u := range prog.Units {
		caller := g.Nodes[u.Name]
		env := u.Constants()
		var nest []LoopInfo
		var walk func(body []ast.Stmt)
		walk = func(body []ast.Stmt) {
			for _, s := range body {
				switch st := s.(type) {
				case *ast.Do:
					li := LoopInfo{Var: st.Var, Step: 1, Loop: st}
					lo, okLo := ast.EvalInt(st.Lo, env)
					hi, okHi := ast.EvalInt(st.Hi, env)
					okStep := true
					step := 1
					if st.Step != nil {
						step, okStep = ast.EvalInt(st.Step, env)
					}
					if okLo && okHi && okStep {
						li.Lo, li.Hi, li.Step, li.Constant = lo, hi, step, true
					}
					nest = append(nest, li)
					walk(st.Body)
					nest = nest[:len(nest)-1]
				case *ast.If:
					walk(st.Then)
					walk(st.Else)
				case *ast.Call:
					callee, ok := g.Nodes[st.Name]
					if !ok {
						caller.External = true
						continue
					}
					site := &CallSite{
						ID: len(g.Sites), Caller: caller, Callee: callee, Stmt: st,
						Nest: append([]LoopInfo(nil), nest...),
					}
					site.Bindings = bindArgs(callee.Proc, st, nest)
					caller.Calls = append(caller.Calls, site)
					callee.Callers = append(callee.Callers, site)
					g.Sites = append(g.Sites, site)
				}
			}
		}
		walk(u.Body)
	}
	if err := g.computeOrder(); err != nil {
		return nil, err
	}
	return g, nil
}

func bindArgs(callee *ast.Procedure, call *ast.Call, nest []LoopInfo) []ArgBinding {
	n := len(call.Args)
	if len(callee.Params) < n {
		n = len(callee.Params)
	}
	out := make([]ArgBinding, 0, n)
	for i := 0; i < n; i++ {
		b := ArgBinding{Formal: callee.Params[i], Actual: call.Args[i]}
		switch a := call.Args[i].(type) {
		case *ast.Ident:
			b.ActualName = a.Name
			for j := len(nest) - 1; j >= 0; j-- {
				if nest[j].Var == a.Name {
					li := nest[j]
					b.LoopIndex = &li
					break
				}
			}
		case *ast.ArrayRef:
			b.ActualName = a.Name
		}
		out = append(out, b)
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
