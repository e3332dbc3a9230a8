// Package partition implements data and computation partitioning
// (§5.3, Figure 9). Given the reaching decomposition of every array, it
// derives each assignment's iteration set from the owner-computes rule
// and decides how the computation partition will be instantiated:
//
//   - reduce the bounds of a local loop when the distributed dimension
//     is indexed by that loop's variable;
//   - execute a scalar assignment where its uses execute when the
//     scalar is private to the procedure (private.go), and on every
//     processor otherwise (replicated scalar computation);
//   - introduce an explicit ownership guard when the constraint cannot
//     be absorbed by a local loop and statements disagree;
//   - delay the constraint to the callers when the distributed
//     dimension is indexed by a formal parameter (delayed instantiation,
//     the paper's key enabling technique).
package partition

import (
	"fmt"

	"fortd/internal/acg"
	"fortd/internal/ast"
	"fortd/internal/decomp"
	"fortd/internal/depend"
	"fortd/internal/sideeffect"
)

// SubPattern is the affine decomposition of a distributed-dimension
// subscript: Coef·Var + Off (Var == "" for constants).
type SubPattern struct {
	Var  string
	Coef int
	Off  int
	OK   bool // affine single-index form
}

// AnalyzeSub classifies one subscript expression.
func AnalyzeSub(e ast.Expr, env ast.Env) SubPattern {
	v, c, k, ok := depend.LinearSubscript(e, env)
	return SubPattern{Var: v, Coef: c, Off: k, OK: ok}
}

// Constraint is an ownership constraint produced by the owner-computes
// rule: values of a variable v are executed locally only when
// v + Offset lies in the local index set of Dist's distributed
// dimension on this processor.
type Constraint struct {
	Array  string // the array whose ownership induces the constraint
	Dist   *decomp.Dist
	Offset int
}

// Key gives a comparable identity for merging constraints.
func (c *Constraint) Key() string {
	return fmt.Sprintf("%s+%d@%s/p%d", c.Dist.Key(), c.Offset, c.Array, c.Dist.P)
}

// Equal reports whether two constraints select the same iterations.
func (c *Constraint) Equal(o *Constraint) bool {
	if c == nil || o == nil {
		return c == o
	}
	return c.Offset == o.Offset && c.Dist.SameOwners(o.Dist)
}

// Reduction marks a recognized scalar reduction (s = s + term,
// s = MAX(s, term), ...): the loop is partitioned by the term's data,
// each processor accumulates a private partial, and a global combine
// follows the loop.
type Reduction struct {
	Var string // the accumulator scalar
	Op  string // "+", "MAX", "MIN"
}

// Item is one partitioning decision: the owner-computes constraint of
// an assignment statement, or a callee's delayed constraint arriving at
// a call (Site set), which reduces a loop, is re-delayed or becomes a
// guard around the call alike.
type Item struct {
	Stmt *ast.Assign // nil for a call's
	At   int         // the statement's position in the plan's index
	Nest []*ast.Do
	// Site is the call a callee's constraint arrives at, Formal the
	// callee variable it is keyed to and Actual the caller-side
	// expression bound to Formal (nil: none is named).
	Site   *acg.CallSite
	Formal string
	Actual ast.Expr
	// Dist is nil for assignments every processor executes: to a
	// replicated array, or to a scalar that adopted no constraint from
	// its uses (private.go).
	Dist    *decomp.Dist
	DistDim int
	Sub     SubPattern
	// How the constraint is instantiated:
	// Loop != nil   → bounds of that local loop are reduced
	// DelayVar != "" → constraint delayed to callers via that variable
	// Guard        → explicit ownership guard around the statement
	Loop     *ast.Do
	DelayVar string
	Guard    bool
	C        *Constraint
	// Red is set for recognized reductions (then Loop carries the
	// partitioning and Guard/DelayVar stay unset).
	Red *Reduction
	// Why records the reason for a guard or demotion (static strings
	// only, so recording is allocation-free when remarks are disabled).
	Why string
	// ScalarWhy is why an assignment to a scalar that has a use under
	// an ownership constraint stays replicated (the WhyScalar strings),
	// and UsedAt the line of the use that decided for or against
	// adopting one (its own: nothing else reads the scalar).
	ScalarWhy string
	UsedAt    int
}

// Demotion and guard reasons recorded on Item.Why.
const (
	WhyNonAffine     = "non-affine or non-unit-stride subscript in the distributed dimension"
	WhyConstIndex    = "constant distributed subscript: a single owner executes the statement"
	WhyUnboundVar    = "the partition variable is bound by neither a local loop nor a formal"
	WhyLoopConflict  = "conflicting ownership constraints reach the same loop"
	WhyDelayConflict = "conflicting delayed constraints reach the same formal"
	WhyMixedLoopWork = "the loop contains work under a different partition, so every iteration is needed"
	WhyDelayPartial  = "the delayed constraint does not cover all work in the procedure"
	WhyCommInLoop    = "communication placed inside the loop requires every processor to run all iterations"
	WhyCommInCallee  = "the procedure communicates itself, so every processor must make the call"
	WhyActualUnnamed = "the actual argument is not a named array"
)

// Plan is the complete computation-partitioning decision for one
// procedure.
type Plan struct {
	Proc  *ast.Procedure
	Index *ast.Index // Proc's
	Items []*Item
	// LoopBounds lists local loops whose bounds are reduced, with the
	// constraint to apply.
	LoopBounds map[*ast.Do]*Constraint
	// Delayed is the union of constraints this procedure passes to its
	// own callers, keyed by the formal/global variable name.
	Delayed map[string]*Constraint
}

// DistOf resolves an array's concrete distribution at a reference
// point; implemented by the driver using reaching decompositions. The
// at statement gives the program point (nil: procedure entry), so
// dynamic redistribution within a procedure resolves correctly.
type DistOf func(array string, at ast.Stmt) (*decomp.Dist, bool)

// DelayedOf returns the delayed constraints of an already-compiled
// callee, keyed by callee formal/global name.
type DelayedOf func(procName string) map[string]*Constraint

// Compute runs Figure 9's partitioning for proc, whose index is ix. fx
// is the program's side-effect analysis, asked what a callee may assign
// (nil: scalars stay replicated); shared names scalars every processor
// evaluates for communication instantiated from a callee, which stay
// replicated too.
//
// One pass over the index's statements mirrors the paper: the
// iteration set of each assignment is derived from the owner-computes
// rule on its left-hand side; the union of iteration sets instantiates
// local loop bounds; constraints on variables not bound by local loops
// are delayed.
func Compute(
	proc *ast.Procedure,
	ix *ast.Index,
	node *acg.Node,
	distOf DistOf,
	delayedOf DelayedOf,
	fx *sideeffect.Analysis,
	shared []string,
	env ast.Env,
) *Plan {
	plan := &Plan{
		Proc:       proc,
		Index:      ix,
		LoopBounds: map[*ast.Do]*Constraint{},
		Delayed:    map[string]*Constraint{},
	}
	conflicted := map[*ast.Do]bool{}
	delayConflict := map[string]bool{}

	// the assignments' items, then the calls': a loop keeps the first
	// constraint registered with it
	var calls []*Item
	for k, site := range ix.Stmts {
		switch st := site.Stmt.(type) {
		case *ast.Assign:
			if red := analyzeReduction(proc, ix, k, distOf, env); red != nil {
				plan.Items = append(plan.Items, red)
				continue
			}
			plan.Items = append(plan.Items, analyzeAssign(proc, st, k, site.Nest, distOf, env))
		case *ast.Call:
			cs := node.Site(st)
			if cs == nil {
				continue
			}
			for formal, c := range delayedOf(st.Name) {
				calls = append(calls, translateCallConstraint(proc, cs, k, formal, c, site.Nest))
			}
		}
	}
	plan.Items = append(plan.Items, calls...)
	plan.adoptScalars(proc, distOf, fx, shared, env)

	// register each constraint with the loop or formal that is to
	// instantiate it, then fall back to guards where two disagreed
	for _, item := range plan.Items {
		switch {
		case item.C == nil:
		case item.Loop != nil:
			register(plan.LoopBounds, conflicted, item.Loop, item.C)
		case item.DelayVar != "":
			register(plan.Delayed, delayConflict, item.DelayVar, item.C)
		default:
			item.Guard = true
		}
	}
	for loop := range conflicted {
		plan.drop(loop, "", WhyLoopConflict)
	}
	for v := range delayConflict {
		plan.drop(nil, v, WhyDelayConflict)
	}
	plan.validate()
	return plan
}

// register records c with k, the loop or formal that is to instantiate
// it: k keeps the first constraint, and one that selects other
// iterations marks k conflicted.
func register[K comparable](cons map[K]*Constraint, conflicted map[K]bool, k K, c *Constraint) {
	if cur, ok := cons[k]; !ok {
		cons[k] = c
	} else if !cur.Equal(c) {
		conflicted[k] = true
	}
}

// validate enforces the union-of-iteration-sets rule: a loop's bounds
// may be reduced, or a constraint delayed to the callers, only when
// every unit of work under its scope (the loop body, the procedure
// body) carries exactly that constraint. Anything else — a scalar
// assignment, a differently-partitioned statement, a call with no
// constraint of its own — needs all iterations, or every processor to
// make the call, so what the constraint carried falls back to guards.
func (p *Plan) validate() {
	itemsOf := p.byStmt()
	carries := func(body []ast.Stmt, loop *ast.Do, v string) bool {
		ok := true
		ast.WalkStmts(body, func(s ast.Stmt) bool {
			switch s.(type) {
			case *ast.Assign, *ast.Call:
				ok = ok && len(itemsOf[s]) > 0
				for _, it := range itemsOf[s] {
					ok = ok && it.Loop == loop && it.DelayVar == v
				}
			}
			return ok
		})
		return ok
	}
	for loop := range p.LoopBounds {
		if !carries(loop.Body, loop, "") {
			p.drop(loop, "", WhyMixedLoopWork)
		}
	}
	for v := range p.Delayed {
		if !carries(p.Proc.Body, nil, v) {
			p.drop(nil, v, WhyDelayPartial)
		}
	}
}

// drop takes loop out of the reduction set, or with loop nil stops
// passing the constraint on v to the callers, demoting everything tied
// to it to guards.
func (p *Plan) drop(loop *ast.Do, v, why string) {
	delete(p.LoopBounds, loop)
	if loop == nil {
		delete(p.Delayed, v)
	}
	for _, it := range p.Items {
		if it.Loop == loop && it.DelayVar == v {
			demoteItem(it, why)
		}
	}
}

// byStmt indexes the plan's decisions by the statement they are about:
// an assignment has one, a call one per constraint arriving from its
// callee, and Compute puts a statement's items next to each other.
func (p *Plan) byStmt() map[ast.Stmt][]*Item {
	itemsOf := make(map[ast.Stmt][]*Item, len(p.Items))
	for i, it := range p.Items {
		s := p.Index.Stmts[it.At].Stmt
		itemsOf[s] = p.Items[i-len(itemsOf[s]) : i+1 : i+1] // the run of s's items so far
	}
	return itemsOf
}

// DropLoopReduction removes a loop from the reduction set after the
// fact (used when communication placed inside the loop requires all
// processors to execute every iteration), demoting its statements to
// guards.
func (p *Plan) DropLoopReduction(loop *ast.Do) {
	if _, ok := p.LoopBounds[loop]; ok {
		p.drop(loop, "", WhyCommInLoop)
	}
}

// DropDelays demotes every delayed constraint of the procedure to
// guards after the fact (used when the procedure sends messages of its
// own, which every processor must take part in: a caller loop reduced by
// a delayed constraint would make each processor call it a different
// number of times).
func (p *Plan) DropDelays(why string) {
	for v := range p.Delayed {
		p.drop(nil, v, why)
	}
}

// demoteItem falls an item back from loop-bounds reduction or delay:
// reductions revert to replicated execution, array assignments and
// calls to guards.
func demoteItem(it *Item, why string) {
	it.Why = why
	if it.Red != nil {
		demoteReduction(it)
		return
	}
	it.Loop, it.DelayVar, it.Guard = nil, "", true
}

// analyzeAssign applies the owner-computes rule to one assignment.
func analyzeAssign(proc *ast.Procedure, st *ast.Assign, at int, nest []*ast.Do, distOf DistOf, env ast.Env) *Item {
	item := &Item{Stmt: st, At: at, Nest: nest}
	lhs, ok := st.Lhs.(*ast.ArrayRef)
	if !ok {
		return item // scalar lhs: replicated execution
	}
	dist, ok := distOf(lhs.Name, st)
	if !ok || dist == nil || dist.IsReplicated() {
		return item
	}
	dim := dist.DistDim()
	if dim >= len(lhs.Subs) {
		return item
	}
	item.Dist = dist
	item.DistDim = dim
	item.Sub = AnalyzeSub(lhs.Subs[dim], env)
	if !item.Sub.OK || item.Sub.Coef > 1 || item.Sub.Coef < 0 {
		// non-unit coefficients fall back to a guard
		item.Guard = true
		item.Why = WhyNonAffine
		item.C = &Constraint{Array: lhs.Name, Dist: dist, Offset: 0}
		return item
	}
	item.C = &Constraint{Array: lhs.Name, Dist: dist, Offset: item.Sub.Off}
	if item.Sub.Var == "" {
		// constant index: single owner executes; explicit guard
		item.Guard = true
		item.Why = WhyConstIndex
	} else {
		item.instantiate(proc, item.Sub.Var, WhyUnboundVar)
	}
	return item
}

// instantiate chooses how the constraint on v, the item's partition
// variable or the actual bound to a callee's formal, is applied: by the
// bounds of the local loop that binds it, delayed to the callers
// through a formal or COMMON variable (the main program has none), or
// by an explicit guard, for the reason unbound.
func (item *Item) instantiate(proc *ast.Procedure, v, unbound string) {
	sym := proc.Symbols.Lookup(v)
	switch loop := LoopFor(item.Nest, v); {
	case loop != nil:
		item.Loop = loop
	case sym != nil && (sym.IsFormal || sym.Common != "") && !proc.IsMain:
		item.DelayVar = v
	default:
		item.Guard, item.Why = true, unbound
	}
}

// translateCallConstraint maps a callee's delayed constraint through
// site, at position at of the index, into the caller's context.
func translateCallConstraint(proc *ast.Procedure, site *acg.CallSite, at int, formal string, c *Constraint, nest []*ast.Do) *Item {
	it := &Item{Site: site, At: at, Nest: nest, Formal: formal, C: c}
	actual := ""
	for _, b := range site.Bindings {
		if b.Formal == formal {
			actual, it.Actual = b.ActualName, b.Actual
			break
		}
	}
	unbound := "" // Explain words a guarded call's reason itself
	if actual == "" {
		unbound = WhyActualUnnamed
	}
	it.instantiate(proc, actual, unbound)
	return it
}

// LoopFor returns the innermost loop of nest whose index is v, or nil.
func LoopFor(nest []*ast.Do, v string) *ast.Do {
	for i := len(nest) - 1; i >= 0; i-- {
		if nest[i].Var == v {
			return nest[i]
		}
	}
	return nil
}
