package partition

import (
	"math"

	"fortd/internal/ast"
	"fortd/internal/decomp"
	"fortd/internal/sideeffect"
)

// Private scalars (DESIGN.md). An assignment to a scalar adopts the
// ownership constraint of the statements its value reaches when the
// scalar is private to the procedure — not a formal, not in COMMON, not
// live on entry, assigned by no callee — they all execute under that
// one constraint, and every distributed read of the assignment is local
// under it. Anything else stays replicated, the reason on ScalarWhy.

// Reasons a scalar assignment stays replicated (Item.ScalarWhy).
const (
	WhyScalarExported = "it is a formal or in COMMON, so another procedure may read it"
	WhyScalarEntry    = "a use is reachable before any assignment (live on entry)"
	WhyScalarCallee   = "a callee may assign it"
	WhyScalarIndex    = "it is a subscript or a loop index, which every processor evaluates"
	WhyScalarUnowned  = "every processor executes a statement that uses it"
	WhyScalarMixed    = "its uses execute under different ownership constraints"
	WhyScalarCarried  = "the value reaches a use after the partition variable has changed"
	WhyScalarRead     = "it reads distributed data that is not local to the owner of its uses"
	WhyScalarComm     = "it selects the root of a broadcast instantiated from a callee, in which every processor takes part"
)

// reaching maps each scalar under analysis to the assignments whose
// value may reach the current point (nil: the value at procedure
// entry), each with the depth of the outermost loop whose back edge the
// value has crossed on the way (never: none).
type reaching map[string]map[*ast.Assign]int

const never = math.MaxInt

// join adds to r (nil: to nothing) what reaches src, as having crossed
// a back edge at depth limit, and returns r.
func (r reaching) join(src reaching, limit int) reaching {
	if r == nil {
		r = make(reaching, len(src))
	}
	for name, defs := range src {
		if r[name] == nil {
			r[name] = make(map[*ast.Assign]int, len(defs))
		}
		for d, c := range defs {
			if old, ok := r[name][d]; !ok || min(c, limit) < old {
				r[name][d] = min(c, limit)
			}
		}
	}
	return r
}

func (r reaching) clone() reaching { return reaching(nil).join(r, never) }

// scalarUse is one statement an assignment's value reaches.
type scalarUse struct {
	stmt  ast.Stmt
	nest  []*ast.Do
	carry int
}

// scalarFlow solves reaching definitions for the scalars a procedure
// assigns by one structured walk (the language has DO, IF and CALL
// only; a RETURN is ignored, which only adds paths).
type scalarFlow struct {
	fx   *sideeffect.Analysis
	uses map[*ast.Assign][]scalarUse
	// why no assignment to a scalar may be partitioned
	exported map[string]string
}

// use records that statement s evaluates e. Communication placed for s
// evaluates subscripts on every processor.
func (f *scalarFlow) use(s ast.Stmt, e ast.Expr, in reaching, nest []*ast.Do) {
	ast.WalkExpr(e, func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.ArrayRef:
			for _, sub := range x.Subs {
				ast.WalkExpr(sub, func(e ast.Expr) {
					if id, ok := e.(*ast.Ident); ok && in[id.Name] != nil {
						f.exported[id.Name] = WhyScalarIndex
					}
				})
			}
		case *ast.Ident:
		defs:
			for d, carry := range in[x.Name] {
				if d == nil {
					f.exported[x.Name] = WhyScalarEntry
					continue
				}
				for i, old := range f.uses[d] {
					if old.stmt == s {
						f.uses[d][i].carry = min(carry, old.carry)
						continue defs
					}
				}
				f.uses[d] = append(f.uses[d], scalarUse{s, nest, carry})
			}
		}
	})
}

// walk pushes in through body and returns what reaches its end.
func (f *scalarFlow) walk(body []ast.Stmt, in reaching, nest []*ast.Do) reaching {
	for _, s := range body {
		exprs := ast.StmtExprs(s)
		if st, ok := s.(*ast.Assign); ok {
			if _, scalar := st.Lhs.(*ast.Ident); scalar {
				exprs = exprs[1:] // the left-hand side is assigned, not read
			}
		}
		for _, e := range exprs {
			f.use(s, e, in, nest)
		}
		switch st := s.(type) {
		case *ast.Assign:
			if lhs, ok := st.Lhs.(*ast.Ident); ok && in[lhs.Name] != nil {
				in[lhs.Name] = map[*ast.Assign]int{st: never}
			}
		case *ast.Do:
			if in[st.Var] != nil {
				f.exported[st.Var] = WhyScalarIndex
			}
			// the first iteration sees in; a later one also what the
			// previous left, across the back edge; zero trips leave in
			inner := append(nest[:len(nest):len(nest)], st)
			top := in.clone().join(f.walk(st.Body, in.clone(), inner), len(nest))
			in.join(f.walk(st.Body, top, inner), never)
		case *ast.If:
			els := f.walk(st.Else, in.clone(), nest)
			in = f.walk(st.Then, in, nest).join(els, never)
		case *ast.Call:
			e := sideeffect.NewSummary()
			f.fx.Add(e, st)
			for name := range in {
				if e.Mod.Has(name) {
					f.exported[name] = WhyScalarCallee
				}
			}
		}
	}
	return in
}

// owner is the ownership constraint a statement executes under: c on
// the current value of the partition variable pv.
type owner struct {
	c  *Constraint
	pv string
}

// adoptScalars partitions the assignments to private scalars by their
// uses. It runs before the constraints are instantiated, so an adopted
// scalar reduces, delays or guards with the statements that use it.
func (p *Plan) adoptScalars(proc *ast.Procedure, distOf DistOf, fx *sideeffect.Analysis, shared []string, env ast.Env) {
	var defs []*Item
	for _, it := range p.Items {
		if it.scalar() != nil && it.Red == nil {
			defs = append(defs, it)
		}
	}
	if len(defs) == 0 || fx == nil || fx.Summaries[proc.Name] == nil {
		return
	}
	f := &scalarFlow{fx: fx, uses: map[*ast.Assign][]scalarUse{}, exported: map[string]string{}}
	in := reaching{}
	for _, it := range defs {
		in[it.scalar().Name] = map[*ast.Assign]int{nil: never}
	}
	f.walk(proc.Body, in.clone(), nil)
	for name := range in {
		if sym := proc.Symbols.Lookup(name); sym == nil || sym.Kind != ast.SymScalar || sym.IsFormal || sym.Common != "" {
			f.exported[name] = WhyScalarExported
		}
	}
	for _, name := range shared {
		f.exported[name] = WhyScalarComm
	}
	itemsOf := p.byStmt()

	// ownerOf returns the constraint s executes under; ok is false when
	// every processor executes it, wait when s is itself a scalar
	// assignment not decided yet
	decided := map[*Item]bool{}
	ownerOf := func(s ast.Stmt) (o owner, ok, wait bool) {
		if its := itemsOf[s]; len(its) == 1 {
			switch it := its[0]; {
			case it.Site != nil:
				if id, named := it.Actual.(*ast.Ident); named {
					return owner{it.C, id.Name}, true, false
				}
			case it.Red != nil:
			case it.C != nil:
				return owner{it.C, it.Sub.Var}, it.Sub.OK && it.Sub.Coef == 1 && it.Sub.Var != "", false
			default:
				return o, false, it.scalar() != nil && !decided[it]
			}
		}
		return o, false, false
	}
	// reads calls fn with each distributed array the assignment reads
	// and the pattern of its distributed subscript
	reads := func(it *Item, fn func(array string, dist *decomp.Dist, sub SubPattern)) {
		for _, ref := range p.Index.RefsOf(it.At) { // a scalar's: the right-hand side's
			if dist, ok := distOf(ref.Name, it.Stmt); ok && dist != nil && !dist.IsReplicated() && dist.DistDim() < len(ref.Subs) {
				fn(ref.Name, dist, AnalyzeSub(ref.Subs[dist.DistDim()], env))
			}
		}
	}
	mod := fx.Summaries[proc.Name].Mod

	// decide settles one assignment if it can and reports whether it did
	decide := func(it *Item) bool {
		name := it.scalar().Name
		var own *owner
		self, waits, mixed, unowned := false, false, false, 0
		for _, u := range f.uses[it.Stmt] {
			o, ok, wait := ownerOf(u.stmt)
			switch {
			case u.stmt == it.Stmt:
				self = true
			case wait:
				waits = true
			case !ok && unowned == 0:
				unowned = u.stmt.Pos().Line
			case ok && own == nil:
				own, it.UsedAt = &o, u.stmt.Pos().Line
			case ok:
				mixed = mixed || !own.c.Equal(o.c) || own.pv != o.pv
			}
		}
		why := f.exported[name]
		switch {
		case why != "":
		case unowned != 0:
			why, it.UsedAt = WhyScalarUnowned, unowned
		case waits:
			return false
		case mixed:
			why = WhyScalarMixed
		case own == nil && self:
			// an accumulation nothing else reads belongs where the
			// distributed data it reads is
			reads(it, func(array string, dist *decomp.Dist, sub SubPattern) {
				if own == nil && sub.OK && sub.Coef == 1 && sub.Var != "" {
					own = &owner{&Constraint{Array: array, Dist: dist, Offset: sub.Off}, sub.Var}
				}
			})
		}
		if own == nil {
			return true // dead, or nothing owned to follow: no remark
		}
		// the partition variable must hold one value from the assignment
		// to every use: bound by one loop around both with no back edge
		// of it or of a loop around it crossed, or never written here
		loop, depth := LoopFor(it.Nest, own.pv), 0
		for loop != nil && it.Nest[depth] != loop {
			depth++
		}
		carried := own.pv == name || loop == nil && mod.Has(own.pv)
		for _, u := range f.uses[it.Stmt] {
			carried = carried || LoopFor(u.nest, own.pv) != loop || loop != nil && u.carry <= depth
		}
		local := true
		reads(it, func(_ string, dist *decomp.Dist, sub SubPattern) {
			local = local && sub.OK && sub.Coef == 1 && sub.Var == own.pv && sub.Off == own.c.Offset && dist.SameOwners(own.c.Dist)
		})
		switch {
		case why != "":
		case carried:
			why = WhyScalarCarried
		case !local:
			why = WhyScalarRead
		default:
			it.C, it.Dist, it.DistDim = own.c, own.c.Dist, own.c.Dist.DistDim()
			it.Sub = SubPattern{Var: own.pv, Coef: 1, Off: own.c.Offset, OK: true}
			it.instantiate(proc, own.pv, WhyUnboundVar)
		}
		if it.ScalarWhy = why; it.UsedAt == 0 {
			it.UsedAt = it.Stmt.Pos().Line // it only accumulates into itself
		}
		return true
	}
	// uses mostly follow definitions, so a chain settles back to front
	for changed := true; changed; {
		changed = false
		for i := len(defs) - 1; i >= 0; i-- {
			if it := defs[i]; !decided[it] && decide(it) {
				decided[it], changed = true, true
			}
		}
	}
}

// Private reports whether an assignment to the scalar name adopted an
// ownership constraint.
func (p *Plan) Private(name string) bool {
	for _, it := range p.Items {
		if id := it.scalar(); id != nil && id.Name == name && it.C != nil && it.Red == nil {
			return true
		}
	}
	return false
}

// scalar returns the scalar an assignment item defines, nil for an
// array element or a call.
func (it *Item) scalar() *ast.Ident {
	if it.Stmt == nil {
		return nil
	}
	id, _ := it.Stmt.Lhs.(*ast.Ident)
	return id
}
