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

// Item is the partitioning decision for one assignment statement.
type Item struct {
	Stmt *ast.Assign
	Nest []*ast.Do
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

// Demotion and guard reasons recorded on Item.Why / CallConstraint.Why.
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

// CallConstraint is a delayed callee constraint applied at a call site.
type CallConstraint struct {
	Site *acg.CallSite
	// Formal is the callee variable the constraint is keyed to.
	Formal string
	// Actual is the caller-side expression bound to Formal.
	Actual ast.Expr
	// Loop != nil → reduce that caller loop's bounds
	// DelayVar != "" → re-delay to this procedure's callers
	// Guard → guard the call with an ownership test
	Loop     *ast.Do
	DelayVar string
	Guard    bool
	C        *Constraint
	// Why records the reason for a guard or demotion (static strings).
	Why string
}

// guard falls the constraint back to an ownership test around the call.
func (cc *CallConstraint) guard(why string) {
	cc.Loop, cc.DelayVar, cc.Guard, cc.Why = nil, "", true, why
}

// Plan is the complete computation-partitioning decision for one
// procedure.
type Plan struct {
	Proc  *ast.Procedure
	Items []*Item
	// LoopBounds lists local loops whose bounds are reduced, with the
	// constraint to apply.
	LoopBounds map[*ast.Do]*Constraint
	// CallCons records delayed constraints arriving from callees.
	CallCons []*CallConstraint
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

// Compute runs Figure 9's partitioning for proc. fx is the program's
// side-effect analysis, asked what a callee may assign (nil: scalars
// stay replicated); shared names scalars every processor evaluates for
// communication instantiated from a callee, which stay replicated too.
//
// The visitNest walk mirrors the paper: the iteration set of each
// assignment is derived from the owner-computes rule on its left-hand
// side; the union of iteration sets instantiates local loop bounds;
// constraints on variables not bound by local loops are delayed.
func Compute(
	proc *ast.Procedure,
	node *acg.Node,
	distOf DistOf,
	delayedOf DelayedOf,
	fx *sideeffect.Analysis,
	shared []string,
	env ast.Env,
) *Plan {
	plan := &Plan{
		Proc:       proc,
		LoopBounds: map[*ast.Do]*Constraint{},
		Delayed:    map[string]*Constraint{},
	}
	conflicted := map[*ast.Do]bool{}
	delayConflict := map[string]bool{}

	addLoopConstraint := func(loop *ast.Do, c *Constraint) {
		if cur, ok := plan.LoopBounds[loop]; !ok {
			plan.LoopBounds[loop] = c
		} else if !cur.Equal(c) {
			conflicted[loop] = true
		}
	}
	addDelayed := func(v string, c *Constraint) {
		if cur, ok := plan.Delayed[v]; !ok {
			plan.Delayed[v] = c
		} else if !cur.Equal(c) {
			delayConflict[v] = true
		}
	}

	var nest []*ast.Do
	var walk func(body []ast.Stmt)
	walk = func(body []ast.Stmt) {
		for _, s := range body {
			switch st := s.(type) {
			case *ast.Do:
				nest = append(nest, st)
				walk(st.Body)
				nest = nest[:len(nest)-1]
			case *ast.If:
				walk(st.Then)
				walk(st.Else)
			case *ast.Assign:
				if red := analyzeReduction(proc, st, nest, distOf, env); red != nil {
					plan.Items = append(plan.Items, red)
					continue
				}
				item := analyzeAssign(proc, st, nest, distOf, env)
				plan.Items = append(plan.Items, item)
			case *ast.Call:
				site := node.Site(st)
				if site == nil {
					continue
				}
				for formal, c := range delayedOf(st.Name) {
					plan.CallCons = append(plan.CallCons, translateCallConstraint(proc, site, formal, c, nest))
				}
			}
		}
	}
	walk(proc.Body)
	plan.adoptScalars(proc, distOf, fx, shared, env)

	// register each constraint with the loop or formal that is to
	// instantiate it, then fall back to guards where two disagreed
	for _, item := range plan.Items {
		switch {
		case item.C == nil:
		case item.Loop != nil:
			addLoopConstraint(item.Loop, item.C)
		case item.DelayVar != "":
			addDelayed(item.DelayVar, item.C)
		default:
			item.Guard = true
		}
	}
	for _, cc := range plan.CallCons {
		switch {
		case cc.Loop != nil:
			addLoopConstraint(cc.Loop, cc.C)
		case cc.DelayVar != "":
			addDelayed(cc.DelayVar, cc.C)
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

// validate enforces the union-of-iteration-sets rule: a loop's bounds
// may be reduced, or a constraint delayed to the callers, only when
// every unit of work under its scope (the loop body, the procedure
// body) carries exactly that constraint. Anything else — a scalar
// assignment, a differently-partitioned statement, a call with no
// constraint of its own — needs all iterations, or every processor to
// make the call, so what the constraint carried falls back to guards.
func (p *Plan) validate() {
	itemOf, ccsOf := p.byStmt()
	carries := func(body []ast.Stmt, loop *ast.Do, v string) bool {
		ok := true
		ast.WalkStmts(body, func(s ast.Stmt) bool {
			switch st := s.(type) {
			case *ast.Assign:
				it := itemOf[st]
				ok = ok && it != nil && it.Loop == loop && it.DelayVar == v
			case *ast.Call:
				ok = ok && len(ccsOf[st]) > 0
				for _, cc := range ccsOf[st] {
					ok = ok && cc.Loop == loop && cc.DelayVar == v
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
	for _, cc := range p.CallCons {
		if cc.Loop == loop && cc.DelayVar == v {
			cc.guard(why)
		}
	}
}

// byStmt indexes the plan's decisions by the statement they are about.
func (p *Plan) byStmt() (map[ast.Stmt]*Item, map[ast.Stmt][]*CallConstraint) {
	itemOf := map[ast.Stmt]*Item{}
	for _, it := range p.Items {
		itemOf[it.Stmt] = it
	}
	ccsOf := map[ast.Stmt][]*CallConstraint{}
	for _, cc := range p.CallCons {
		ccsOf[cc.Site.Stmt] = append(ccsOf[cc.Site.Stmt], cc)
	}
	return itemOf, ccsOf
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
// reductions revert to replicated execution, array assignments to
// guards.
func demoteItem(it *Item, why string) {
	it.Why = why
	if it.Red != nil {
		demoteReduction(it)
		return
	}
	it.Loop, it.DelayVar, it.Guard = nil, "", true
}

// analyzeAssign applies the owner-computes rule to one assignment.
func analyzeAssign(proc *ast.Procedure, st *ast.Assign, nest []*ast.Do, distOf DistOf, env ast.Env) *Item {
	item := &Item{Stmt: st, Nest: append([]*ast.Do(nil), nest...)}
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
		item.instantiate(proc)
	}
	return item
}

// instantiate chooses how the constraint on the item's partition
// variable is applied: by the bounds of the local loop that binds it,
// delayed to the callers through a formal, or by an explicit guard.
func (item *Item) instantiate(proc *ast.Procedure) {
	if loop := LoopFor(item.Nest, item.Sub.Var); loop != nil {
		item.Loop = loop
	} else if sym := proc.Symbols.Lookup(item.Sub.Var); sym != nil && (sym.IsFormal || sym.Common != "") {
		item.DelayVar = item.Sub.Var
	} else {
		item.Guard = true
		item.Why = WhyUnboundVar
	}
}

// translateCallConstraint maps a callee's delayed constraint through a
// call site into the caller's context.
func translateCallConstraint(proc *ast.Procedure, site *acg.CallSite, formal string, c *Constraint, nest []*ast.Do) *CallConstraint {
	cc := &CallConstraint{Site: site, C: c, Formal: formal}
	var actual string
	for _, b := range site.Bindings {
		if b.Formal == formal {
			actual = b.ActualName
			cc.Actual = b.Actual
			break
		}
	}
	if actual == "" {
		cc.Guard = true
		cc.Why = WhyActualUnnamed
		return cc
	}
	if loop := LoopFor(nest, actual); loop != nil {
		cc.Loop = loop
		return cc
	}
	if sym := proc.Symbols.Lookup(actual); sym != nil && (sym.IsFormal || sym.Common != "") && !proc.IsMain {
		cc.DelayVar = actual
		return cc
	}
	cc.Guard = true
	return cc
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
