// Package sched is the computation/communication overlap pass: a
// post-codegen schedule transformation that converts blocking
// communication in the generated SPMD program to post-early/wait-late
// form, in the shape of the paper's §7 pipelining discussion (and of
// PSyclone's movable HaloExchange schedule nodes).
//
// The pass is five transforms over one view of a statement list (the
// table below; bcast.go, lookahead.go, chain.go, halo.go):
//
//   - Redundant-broadcast elimination deletes a broadcast whose section
//     an earlier broadcast from the same root already delivered.
//   - Pivot lookahead pipelines a rotating-root pivot broadcast across
//     the iterations of its loop.
//   - Early shifts split each loop of a chain of pipelined loops after
//     the cells the next loop's shift sends, and send it there.
//   - Halo split turns the recvs of a stencil exchange into posts, runs
//     the interior of the following loop, waits, and runs the peeled
//     boundary iterations.
//   - Broadcast hoist splits a broadcast into a post hoisted above the
//     statements it may move across and a wait in its place.
//
// A last step over each unit, the guard merge (merge), makes a run of
// adjacent IFs that test the same condition one IF.
//
// Whether a statement may move across another is one rule (view.blocker)
// asked of one summary of what a statement does (Pass.effects, which is
// internal/sideeffect's GMOD/GREF read off the generated dialect, calls
// resolved through formals and COMMON blocks); the early shifts cross
// only sends, recvs and assignments to array elements, and prove it from
// those statements alone. Every site a transform considers gets an
// Applied or Missed explain remark under pass "sched".
// The pass writes no statement or unit it did not create: an edited list
// is a new list, a loop or branch whose list changes is replaced by a
// copy, and so is a unit whose body changes, in prog.Units. Every
// untouched statement is shared with the input, which may therefore be
// a cached unit or another program's.
// The pass preserves observable semantics exactly: a statement moves
// only across statements proven not to interfere with it, and peeled
// iterations re-run after the waits in a loop whose iterations are
// proven independent, so each array element is computed by the same
// expression reading the same values as the blocking schedule; two tests
// become one only where nothing between them may write what they read.
package sched

import (
	"fmt"
	"slices"
	"sort"

	"fortd/internal/acg"
	"fortd/internal/ast"
	"fortd/internal/depend"
	"fortd/internal/explain"
	"fortd/internal/sideeffect"
)

// A transform looks at position i of a view. If the statements there
// are not its shape it returns (i, false) and has touched nothing. If
// they are, it reports the site — Applied with the list rewritten, or
// Missed with the reason and the list as it was — and returns the
// position of the first statement it has not dealt with.
type transform struct {
	name    string // of its explain remarks
	refusal string // what a Missed remark says did not happen
	at      func(v *view, i int) (next int, matched bool)
}

var (
	redundant = &transform{"overlap-redundant", "", dropRedundant}
	lookahead = &transform{"overlap-lookahead", "pivot broadcast not pipelined", pipelinePivot}
	early     = &transform{"overlap-chain", "shift not sent early", sendEarly}
	halo      = &transform{"overlap-halo", "recv not split", splitHalo}
	hoist     = &transform{"overlap-bcast", "broadcast not posted early", hoistBcast}
)

// Apply reschedules prog's units with one Pass, installs each unit it
// reschedules in prog.Units and returns the number of sites transformed
// (split recvs, hoisted, pipelined and removed broadcasts).
func Apply(prog *ast.Program, ec *explain.Collector) (sites int) {
	p := &Pass{Prog: ast.NewProgram(slices.Clone(prog.Units))}
	for _, u := range p.Prog.Units {
		s, n := p.Unit(u, ec)
		if sites += n; s != nil {
			prog.ReplaceProc(s)
		}
	}
	return sites
}

// A Pass reschedules the units of Prog, a blocking program, one at a
// time. A unit it reschedules is a new *ast.Procedure that shares every
// untouched statement; no unit or statement Prog holds is written, and
// every unit is read as Prog holds it, so what the pass makes of a unit
// depends on it, the units it calls (transitively) and Tag alone. Tag,
// the last post/wait tag assigned, numbers the pairs program-wide, so
// they cannot collide across procedures; a caller that skips a unit
// whose schedule it knows adds the tags that unit used.
type Pass struct {
	Prog  *ast.Program
	ec    *explain.Collector
	Tag   int
	sites int // Applied remarks in the unit at hand
	// fx holds the per-procedure summaries behind effects, computed at
	// the first question and once per pass: no rewrite changes what a
	// procedure writes, reads or whether it communicates.
	fx *sideeffect.Analysis
	// chain is sendEarly's scratch, the loops of the chain at hand
	chain []group
}

// Unit returns u rescheduled, a new unit, or nil if nothing changed, and
// the number of sites transformed, reporting them to ec.
func (p *Pass) Unit(u *ast.Procedure, ec *explain.Collector) (*ast.Procedure, int) {
	p.ec, p.sites = ec, 0
	body := p.merge(u, p.schedule(u, u.Body))
	if sameList(body, u.Body) {
		return nil, p.sites
	}
	cp := *u
	cp.Body = body
	return &cp, p.sites
}

// schedule reschedules one statement list of u and returns it, or a new
// list if anything in it changed. It is
// the only code that knows the order of the transforms and the
// recursion, and the order shows in the output: tags are numbered as
// sites are rewritten and the listing prints them. Redundant broadcasts
// go first — from a loop body before the lookahead looks at the loop,
// because it matches the pruned shape and rewrites the loop before the
// body is scheduled — then the nested lists, then this list's own chain,
// halo and hoist sites in one scan from left to right.
func (p *Pass) schedule(u *ast.Procedure, list []ast.Stmt) []ast.Stmt {
	if len(list) < 2 && !nests(list) {
		return list // every transform needs a predecessor or a successor
	}
	v := &view{Pass: p, unit: u, list: list}
	v.scan(redundant)
	for i := 0; i < len(v.list); i++ {
		switch st := v.list[i].(type) {
		case *ast.Do:
			v.loopBody(i, (&view{Pass: p, unit: u, list: st.Body}).scan(redundant))
			if next, ok := v.try(lookahead, i); ok {
				i = next - 1 // the loop's new place, past a prologue
			}
			v.loopBody(i, p.schedule(u, v.list[i].(*ast.Do).Body))
		case *ast.If:
			v.branches(i, func(l []ast.Stmt) []ast.Stmt { return p.schedule(u, l) })
		}
	}
	return v.scan(early, halo, hoist)
}

// merge is the last step of a unit's schedule, after the transforms, which
// look at one guard per message: in list and the lists nested in it, each
// IF that joins the one before it becomes part of it.
func (p *Pass) merge(u *ast.Procedure, list []ast.Stmt) []ast.Stmt {
	v := &view{Pass: p, unit: u, list: list}
	for i := 0; i < len(v.list); i++ {
		switch st := v.list[i].(type) {
		case *ast.Do:
			v.loopBody(i, p.merge(u, st.Body))
		case *ast.If:
			var lines []int
			for i+1 < len(v.list) && v.joins(st, v.list[i+1]) {
				next := v.list[i+1]
				joined := *st
				joined.Then = append(slices.Clip(st.Then), next.(*ast.If).Then...)
				st, lines = &joined, append(lines, next.Pos().Line)
				v.replace(i, 2, st)
			}
			if lines != nil && v.ec.Enabled() {
				v.ec.Addf(explain.Applied, "sched", u.Name, st.Pos().Line, "guard-merge", "%d tests of %s made one, for lines %v",
					len(lines)+1, st.Cond, slices.Compact(append([]int{st.Pos().Line}, lines...)))
			}
			v.branches(i, func(l []ast.Stmt) []ast.Stmt { return p.merge(u, l) })
		}
	}
	return v.list
}

// joins reports whether next may join the IF st: both are IFs without an ELSE,
// their conditions print alike, and st's body may write nothing the condition
// reads (a call: by its callee's summary, built only then; none: refused).
func (v *view) joins(st *ast.If, next ast.Stmt) bool {
	nx, ok := next.(*ast.If)
	if !ok || len(st.Else)+len(nx.Else) > 0 || !ast.ExprEqual(st.Cond, nx.Cond) {
		return false
	}
	var fx *sideeffect.Analysis
	known, wrote := true, sideeffect.NewSummary()
	ast.WalkStmts(st.Then, func(s ast.Stmt) bool {
		if call, ok := s.(*ast.Call); ok {
			fx, known = v.summaries(), known && v.opaque(call) == ""
		}
		return known
	})
	fx.Add(wrote, st.Then...)
	for name := range wrote.Mod {
		known = known && !mentions(st.Cond, name)
	}
	return known
}

// loopBody gives the loop at i the statement list body: the loop is
// replaced by a copy unless body is the list it has.
func (v *view) loopBody(i int, body []ast.Stmt) {
	loop := v.list[i].(*ast.Do)
	if !sameList(body, loop.Body) {
		cp := *loop
		cp.Body = body
		v.replace(i, 1, &cp)
	}
}

// branches gives the IF at i the lists f makes of its branches: the IF
// is replaced by a copy unless both are the lists it has.
func (v *view) branches(i int, f func([]ast.Stmt) []ast.Stmt) {
	st := v.list[i].(*ast.If)
	if then, els := f(st.Then), f(st.Else); !sameList(then, st.Then) || !sameList(els, st.Else) {
		cp := *st
		cp.Then, cp.Else = then, els
		v.replace(i, 1, &cp)
	}
}

// sameList reports whether a and b are the same statement list. Every
// edit builds a new list, so a list that compares equal is unchanged.
func sameList(a, b []ast.Stmt) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// nests reports whether list holds a loop or a branch.
func nests(list []ast.Stmt) bool {
	for _, s := range list {
		switch s.(type) {
		case *ast.Do, *ast.If:
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// The view

// view is one statement list of one unit while the pass works on it:
// the list, the edits the transforms make to it, and the reporter of
// the site under consideration.
type view struct {
	*Pass
	unit *ast.Procedure
	list []ast.Stmt
	t    *transform // the one looking at the list
}

func (v *view) try(t *transform, i int) (int, bool) {
	v.t = t
	return t.at(v, i)
}

// scan walks the list once from left to right, offering each position
// to the transforms in order, and returns the list as they left it.
func (v *view) scan(ts ...*transform) []ast.Stmt {
	for i := 0; i < len(v.list); {
		next := i + 1
		for _, t := range ts {
			if n, matched := v.try(t, i); matched {
				next = n
				break
			}
		}
		i = next
	}
	return v.list
}

// replace puts repl in place of the n statements at position i (n = 0
// inserts before i, no repl removes), in a new list: the one the view
// started from may be shared.
func (v *view) replace(i, n int, repl ...ast.Stmt) {
	list := make([]ast.Stmt, 0, len(v.list)-n+len(repl))
	list = append(append(list, v.list[:i]...), repl...)
	v.list = append(list, v.list[i+n:]...)
}

// split returns the two halves of a blocking recv or broadcast under a
// fresh tag: the post, which starts the transfer where it stands, and
// the wait, which delivers it.
func (p *Pass) split(m *ast.Message) (post, wait *ast.Message) {
	k := m.Op.Kind()
	if k.Post == 0 {
		panic(fmt.Sprintf("sched: %s has no split-phase form", k.Word))
	}
	p.Tag++
	po, wa := *m, &ast.Message{Op: k.Wait, Tag: int32(p.Tag), Array: m.Array}
	po.Op, po.Tag, wa.Position = k.Post, int32(p.Tag), m.Position
	return &po, wa
}

// applied and missed report the site at line under the transform at
// work; applied counts it.
func (v *view) applied(line int, format string, args ...interface{}) {
	v.sites++
	v.ec.Addf(explain.Applied, "sched", v.unit.Name, line, v.t.name, format, args...)
}

func (v *view) missed(line int, format string, args ...interface{}) {
	if !v.ec.Enabled() {
		return
	}
	v.ec.Addf(explain.Missed, "sched", v.unit.Name, line, v.t.name, v.t.refusal+": "+format, args...)
}

// ---------------------------------------------------------------------------
// Effects and the motion rule

// effects is the one summary every legality question is asked of: what
// executing the statements may write and read, by name, and whether
// they communicate. A call's row is its callee's summary seen from the
// call: formals as the actuals' names, COMMON variables under their own.
// A callee the program does not define is ⊤ (it may communicate), and
// so is every call of a program acg.Build rejects — nothing the
// compiler generates, but node programs are also written by hand: a
// recursive one has no bottom-up order, and one that breaks the
// storage-association contract no name-based effects.
func (p *Pass) effects(s ...ast.Stmt) *sideeffect.Summary {
	e := sideeffect.NewSummary()
	p.summaries().Add(e, s...)
	return e
}

func (p *Pass) summaries() *sideeffect.Analysis {
	if p.fx == nil {
		g, err := acg.Build(p.Prog)
		if err != nil {
			g = &acg.Graph{Program: p.Prog}
		}
		p.fx = sideeffect.Compute(g, sideeffect.Own)
	}
	return p.fx
}

// reads lists, in a fixed order, the names m reads or sends.
func (p *Pass) reads(m ast.Stmt) []string {
	names := p.effects(m).Ref.Members()
	sort.Strings(names)
	return names
}

// opaque says why nothing is known about what a call does, or "".
func (p *Pass) opaque(c *ast.Call) string {
	switch {
	case p.Prog.Proc(c.Name) == nil:
		return "call to unknown procedure " + c.Name
	case p.summaries().Summaries[c.Name] == nil:
		return fmt.Sprintf("call %s is part of a recursive program", c.Name)
	}
	return ""
}

// blocker is the one motion rule. A statement that reads or sends the
// names in reads may move across s when s does not communicate —
// messages on a link are matched in order — and writes none of them;
// and only a simple statement is crossed at all, never a loop, a branch
// or a return. It returns "" then, and otherwise what pins the
// statement on its side of s.
func (v *view) blocker(s ast.Stmt, reads []string) string {
	call, isCall := s.(*ast.Call)
	if _, isAssign := s.(*ast.Assign); !isAssign && !isCall {
		return "cannot move past " + v.label(s)
	}
	e := v.effects(s)
	if e.Comm {
		if why := v.opaque(call); why != "" {
			return why
		}
		return fmt.Sprintf("call %s contains communication", call.Name)
	}
	for _, name := range reads {
		if e.Mod.Has(name) {
			return v.writes(s, name)
		}
	}
	return ""
}

// writes words the reason "s, an assignment or a call, writes name".
func (v *view) writes(s ast.Stmt, name string) string {
	if call, ok := s.(*ast.Call); ok {
		if sym := v.unit.Symbols.Lookup(name); sym != nil && sym.Common != "" {
			name = fmt.Sprintf("%s (COMMON /%s/)", name, sym.Common)
		}
		return fmt.Sprintf("call %s may write %s", call.Name, name)
	}
	if _, ok := s.(*ast.Assign).Lhs.(*ast.ArrayRef); ok {
		return "assignment writes array " + name
	}
	return fmt.Sprintf("assignment writes %s, which the broadcast reads", name)
}

// label names the kind of a statement the pass will not look into.
func (v *view) label(s ast.Stmt) string {
	switch s.(type) {
	case *ast.Do:
		return "a nested loop"
	case *ast.If:
		return "control flow"
	case *ast.Call:
		return "a call"
	case *ast.Return:
		return "a return"
	}
	if v.effects(s).Comm {
		return "communication"
	}
	return fmt.Sprintf("%T", s)
}

// ---------------------------------------------------------------------------
// Small symbolic helpers

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

func isIntLit(e ast.Expr, v int) bool {
	l, ok := e.(*ast.IntLit)
	return ok && l.Value == v
}

// named reports whether e is the variable or the array called name.
func named(e ast.Expr, name string) bool {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name == name
	case *ast.ArrayRef:
		return x.Name == name
	}
	return false
}

// mentions reports whether e refers to the variable or array name.
func mentions(e ast.Expr, name string) bool {
	found := false
	ast.WalkExpr(e, func(e ast.Expr) { found = found || named(e, name) })
	return found
}

// offsetFrom decomposes e as v + c for the identifier v, returning c.
func offsetFrom(e ast.Expr, v string) (int, bool) {
	var l single
	if l.add(e, 1) {
		return l.c, l.k == 1 && l.sym == v
	}
	name, coef, c, ok := depend.LinearSubscript(e, nil)
	return c, ok && name == v && coef == 1
}

// single is c + k·sym, depend.Affine over at most one identifier: what
// the generated dialect's bounds, sections and partners are (my$p, a
// loop index), built without allocating.
type single struct {
	sym  string
	k, c int
}

// add accumulates k·e as depend.Linearize(e, nil, nil) does. It reports
// false for what Linearize rejects — a division, a call, a real literal —
// and leaves to Linearize a second identifier and a product whose
// constant side is not a literal.
func (l *single) add(e ast.Expr, k int) bool {
	switch x := e.(type) {
	case *ast.IntLit:
		l.c += k * x.Value
		return true
	case *ast.Ident:
		if l.k != 0 && l.sym != x.Name {
			return false
		}
		l.sym, l.k = x.Name, l.k+k
		return true
	case *ast.Unary:
		return x.Op == "-" && l.add(x.X, -k)
	case *ast.Binary:
		switch x.Op {
		case ast.OpAdd:
			return l.add(x.X, k) && l.add(x.Y, k)
		case ast.OpSub:
			return l.add(x.X, k) && l.add(x.Y, -k)
		case ast.OpMul:
			if c, ok := x.X.(*ast.IntLit); ok {
				return l.add(x.Y, k*c.Value)
			}
			if c, ok := x.Y.(*ast.IntLit); ok {
				return l.add(x.X, k*c.Value)
			}
		}
	}
	return false
}

// addConst builds e + c (or e - |c|), cloning e.
func addConst(e ast.Expr, c int) ast.Expr {
	if c == 0 {
		return ast.CloneExpr(e)
	}
	if c > 0 {
		return &ast.Binary{Op: ast.OpAdd, X: ast.CloneExpr(e), Y: &ast.IntLit{Value: c}}
	}
	return &ast.Binary{Op: ast.OpSub, X: ast.CloneExpr(e), Y: &ast.IntLit{Value: -c}}
}

// atLeast reports whether b - a >= k is provable: the difference of
// affine forms is a constant >= k, unwrapping MIN/MAX on either side
// (x < MAX(p,q) holds if it holds against either arm; x < MIN(p,q)
// needs both, and symmetrically for the left side).
func atLeast(a, b ast.Expr, k int) bool {
	if fc, ok := b.(*ast.FuncCall); ok {
		return overArms(fc, "MAX", "MIN", func(arm ast.Expr) bool { return atLeast(a, arm, k) })
	}
	if fc, ok := a.(*ast.FuncCall); ok {
		return overArms(fc, "MIN", "MAX", func(arm ast.Expr) bool { return atLeast(arm, b, k) })
	}
	var sa, sb single
	if sa.add(a, 1) && sb.add(b, 1) {
		return sa.k == sb.k && (sa.k == 0 || sa.sym == sb.sym) && sb.c-sa.c >= k
	}
	la, okA := depend.Linearize(a, nil, nil)
	lb, okB := depend.Linearize(b, nil, nil)
	if !okA || !okB {
		return false
	}
	d := lb.Minus(&la)
	return d.IsConst() && d.Const >= k
}

// overArms reports whether holds is true of some argument of a call of
// the function some, or of every argument (and there is one) of a call
// of the function every; of any other function, nothing is known.
func overArms(fc *ast.FuncCall, some, every string, holds func(ast.Expr) bool) bool {
	n := 0
	for _, arm := range fc.Args {
		if holds(arm) {
			n++
		}
	}
	return n > 0 && (fc.Name == some || fc.Name == every && n == len(fc.Args))
}
