// Package sideeffect computes interprocedural scalar and array
// side-effect summaries: GMOD(P) and GREF(P), the sets of formal
// parameters, common-block variables and locally visible names that may
// be modified or referenced by P or its descendants in the call graph,
// and Appear(P) = GMOD(P) ∪ GREF(P), the set the procedure-cloning
// algorithm of Figure 8 filters reaching decompositions against.
//
// It reads the generated SPMD dialect as well as Fortran D source: a
// communication statement modifies what it receives into, references
// what it sends and the expressions of its section and peer, and marks
// the summary as communicating. The overlap schedule asks it what a
// statement it wants to move another across may do (Analysis.Add).
package sideeffect

import (
	"fortd/internal/acg"
	"fortd/internal/ast"
)

// Set is a set of names.
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

// Union adds all of o to s.
func (s Set) Union(o Set) {
	for m := range o {
		s[m] = struct{}{}
	}
}

// Members returns the elements (unordered).
func (s Set) Members() []string {
	out := make([]string, 0, len(s))
	for m := range s {
		out = append(out, m)
	}
	return out
}

// Summary holds the side effects of one procedure, expressed in that
// procedure's own name space (formals, globals and locals), or of any
// list of statements (Analysis.Add).
type Summary struct {
	Mod Set // GMOD: may be modified by P or descendants
	Ref Set // GREF: may be referenced by P or descendants
	// Comm is set when P or a descendant executes a communication
	// statement, or calls a procedure the program does not define (which
	// may do anything).
	Comm bool
}

// NewSummary returns the summary of doing nothing.
func NewSummary() *Summary { return &Summary{Mod: NewSet(), Ref: NewSet()} }

// Appear returns GMOD ∪ GREF.
func (s *Summary) Appear() Set {
	out := s.Mod.Clone()
	out.Union(s.Ref)
	return out
}

// Analysis maps each procedure name to its summary.
type Analysis struct {
	Summaries map[string]*Summary
	prog      *ast.Program
	// commons holds every name some unit declares in a COMMON block
	// (acg.Graph.Commons): an effect on one passes through callers that
	// do not declare it.
	commons map[string]*ast.Symbol
}

// Own is the local pass of Compute over one unit: its statements' own
// effects, a CALL's callee aside.
func Own(proc *ast.Procedure) *Summary {
	sum := NewSummary()
	(*Analysis)(nil).Add(sum, proc.Body...)
	return sum
}

// Compute solves GMOD/GREF bottom-up over the acyclic call graph: each
// procedure's own effects (own(proc): Own, or a memo of it; the summary
// of a procedure without a CALL, which nothing writes), with the summary
// of every callee (already computed) translated through the call's
// formal→actual bindings. Purely local effects stay in a procedure's
// summary for its own use; callers see only what translates: formals
// and commons.
func Compute(g *acg.Graph, own func(*ast.Procedure) *Summary) *Analysis {
	a := &Analysis{Summaries: make(map[string]*Summary), prog: g.Program, commons: g.Commons}
	for _, n := range g.ReverseTopoOrder() {
		sum := own(n.Proc)
		if len(n.Calls) > 0 || n.External {
			sum = &Summary{Mod: sum.Mod.Clone(), Ref: sum.Ref.Clone(), Comm: sum.Comm || n.External}
			for _, site := range n.Calls {
				a.Add(sum, site.Stmt)
			}
		}
		a.Summaries[n.Name()] = sum
	}
	return a
}

// Add unions into sum what executing the statements may do: their own
// effects, those of the statements nested in them, and at a CALL the
// callee's summary seen from the call site, which a nil Analysis omits.
func (a *Analysis) Add(sum *Summary, body ...ast.Stmt) {
	ref := func(e ast.Expr) {
		ast.WalkExpr(e, func(e ast.Expr) {
			switch x := e.(type) {
			case *ast.Ident:
				sum.Ref[x.Name] = struct{}{}
			case *ast.ArrayRef:
				sum.Ref[x.Name] = struct{}{}
			}
		})
	}
	// comm records a communication statement on name: whether it
	// receives into it, whether it sends it, and the expressions of its
	// section and peer
	comm := func(s ast.Stmt, name string, receives, sends bool) {
		sum.Comm = true
		if receives {
			sum.Mod[name] = struct{}{}
		}
		if sends {
			sum.Ref[name] = struct{}{}
		}
		for _, e := range ast.StmtExprs(s) {
			ref(e)
		}
	}
	ast.WalkStmts(body, func(s ast.Stmt) bool {
		switch st := s.(type) {
		case *ast.Assign:
			switch lhs := st.Lhs.(type) {
			case *ast.Ident:
				sum.Mod[lhs.Name] = struct{}{}
			case *ast.ArrayRef:
				sum.Mod[lhs.Name] = struct{}{}
				for _, sub := range lhs.Subs {
					ref(sub)
				}
			}
			ref(st.Rhs)
		case *ast.Do:
			sum.Mod[st.Var] = struct{}{}
			ref(st.Lo)
			ref(st.Hi)
			ref(st.Step)
		case *ast.If:
			ref(st.Cond)
		case *ast.Call:
			// the actuals themselves are the callee's business; the
			// subscripts of an array-element actual are evaluated here
			for _, arg := range st.Args {
				if ar, ok := arg.(*ast.ArrayRef); ok {
					for _, sub := range ar.Subs {
						ref(sub)
					}
				}
			}
			if a == nil {
				break
			}
			callee := a.Summaries[st.Name]
			if callee == nil {
				sum.Comm = true
				break
			}
			sum.Comm = sum.Comm || callee.Comm
			a.translate(st, callee.Mod, sum.Mod)
			a.translate(st, callee.Ref, sum.Ref)
		case *ast.Message:
			k := st.Op.Kind()
			comm(s, st.Array, k.Mod, k.Ref)
		case *ast.GlobalReduce:
			comm(s, st.Var, true, true)
		case *ast.Remap:
			comm(s, st.Array, true, true)
		}
		return true
	})
}

// translate maps a callee-side effect set through a call into the
// caller's name space: formals become the corresponding actual names
// (an array-element actual stands for its array), common variables
// keep their names — also through a callee that does not declare them
// itself — and callee locals are dropped.
func (a *Analysis) translate(call *ast.Call, calleeSet, out Set) {
	callee := a.prog.Proc(call.Name)
	for name := range calleeSet {
		sym := callee.Symbols.Lookup(name)
		switch {
		case sym != nil && sym.IsFormal:
			switch actual := call.Args[sym.FormalIndex].(type) {
			case *ast.Ident:
				out[actual.Name] = struct{}{}
			case *ast.ArrayRef:
				out[actual.Name] = struct{}{}
			}
		case (sym == nil || sym.Common != "") && a.commons[name] != nil:
			out[name] = struct{}{}
		}
	}
}

// AppearSet returns Appear(P) for the named procedure ("" sets for
// unknown procedures, which arise only for external routines).
func (a *Analysis) AppearSet(name string) Set {
	if s, ok := a.Summaries[name]; ok {
		return s.Appear()
	}
	return NewSet()
}
