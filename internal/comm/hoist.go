package comm

import (
	"math"

	"fortd/internal/acg"
	"fortd/internal/ast"
	"fortd/internal/depend"
	"fortd/internal/partition"
	"fortd/internal/rsd"
	"fortd/internal/sideeffect"
)

// hoister answers, for one procedure, the question every move of a
// message asks (writer). A message leaves the loops around its read
// innermost first (§5.3), then the procedure, delayed to its callers
// (§5.4). For an assignment's read depend answers for the assignments
// (Ref.SinkLevel) and writer for the calls; for a callee's, writer.
type hoister struct {
	proc     *ast.Procedure
	ix       *ast.Index // proc's
	node     *acg.Node
	sections map[string]*SectionSummary
	mod      sideeffect.Set // what the procedure or its callees may assign
	env      ast.Env
	remapsAt RemapsAt
	writers  []writer         // every array assignment, CALL and remap, in order
	order    map[ast.Stmt]int // preorder position of every statement
}

// writer is an assignment to an array element or a CALL (site), under
// the loops nest; secs is what it may write in the procedure's names,
// anchored at the indices of nest. A remap of array drops every message
// received for it, so it counts as writing all of it wherever it runs:
// at pos, in half steps of the preorder (2·order − 1 just before stmt,
// 2·order + 1 just after it and all it holds).
type writer struct {
	stmt  ast.Stmt
	site  *acg.CallSite
	nest  []*ast.Do
	secs  []*rsd.Section
	array string // a remap's array
	pos   int
}

// why is the reason a message stays inside a loop that runs w.
func (w *writer) why() string {
	if w.array != "" {
		return WhyRemapped
	}
	return WhyWritten
}

// unbounded is what an end widens to where nothing bounds it.
var unbounded = rsd.Range(math.MinInt32, math.MaxInt32)

// writer returns the first statement that may write an element of read
// that the message crosses in one step: from just before nest[i+1] (or
// the reading statement at) to just before nest[i], crossing nest[i]'s
// earlier iterations and what the current one runs before, or for
// i = -1 from just before nest[0] (or at) to the procedure's entry.
// read's anchors at nest[:i+1] name the current iterations; deeper
// loops are bound. Assignments count if assigns, remaps always. nil:
// the step is legal.
func (h *hoister) writer(read *rsd.Section, nest []*ast.Do, at ast.Stmt, i int, assigns bool) *writer {
	if !assigns && (h.node == nil || len(h.node.Calls) == 0) && h.remapsAt == nil {
		return nil
	}
	next := at
	if i+1 < len(nest) {
		next = nest[i+1]
	}
	// the current iteration is the read's and lies in the span; the
	// earlier ones lie on the side it came from
	var v string
	var span, earlier rsd.Dim
	if i >= 0 {
		n := nest[i].Norm(h.env)
		v, span = nest[i].Var, h.span(n, nest[:i])
		earlier = span
		switch {
		case n.Step > 0:
			earlier.HiVar, earlier.Hi = v, -1
		case n.Step < 0:
			earlier.LoVar, earlier.Lo = v, 1
		}
	}
	for k := range h.collect() {
		w := &h.writers[k]
		first := h.order[w.stmt] < h.order[next] // in the current iteration
		if w.array != "" {
			first = w.pos < 2*h.order[next]
		}
		if w.site == nil && w.array == "" && !assigns || i < 0 && !first || i >= 0 && (len(w.nest) <= i || w.nest[i] != nest[i]) {
			continue
		}
		if w.array != "" {
			if w.array == read.Array {
				return w
			}
			continue
		}
		for _, sec := range w.secs {
			if sec.Array != read.Array {
				continue
			}
			for j := len(w.nest) - 1; j > i; j-- {
				sec = sec.Bind(w.nest[j].Var, h.span(w.nest[j].Norm(h.env), w.nest[:j]))
			}
			hit := !rsd.Disjoint(sec, read)
			if i >= 0 {
				hit = first && hit && !rsd.Disjoint(sec.Bind(v, span), read) || !rsd.Disjoint(sec.Bind(v, earlier), read)
			}
			if hit {
				return w
			}
		}
	}
	return nil
}

// span is the range a loop's index takes, between the ordered ends of
// its normal form n: each end an anchor plus a constant where the bound
// is steady under outer, unbounded where not. A loop whose step is not
// a known constant spans everything.
func (h *hoister) span(n ast.Norm, outer []*ast.Do) rsd.Dim {
	r := unbounded
	if n.Step == 0 {
		return r
	}
	if v, c, ok := h.anchor(n.Low, outer); ok {
		r.LoVar, r.Lo = v, c
	}
	if v, c, ok := h.anchor(n.High, outer); ok {
		r.HiVar, r.Hi = v, c
	}
	return r
}

// anchor splits e into a constant plus, if any, a scalar steady under
// nest: the index of one of them, or one nothing in the procedure
// assigns.
func (h *hoister) anchor(e ast.Expr, nest []*ast.Do) (string, int, bool) {
	v, a, c, ok := depend.LinearSubscript(e, h.env)
	return v, c, ok && (v == "" || a == 1 && (partition.LoopFor(nest, v) != nil || !h.mod.Has(v)))
}

// collect lists the writers and numbers the statements once.
func (h *hoister) collect() []writer {
	if h.order != nil {
		return h.writers
	}
	h.order = make(map[ast.Stmt]int, len(h.ix.Stmts))
	var open []int // the statements whose nested ones are being listed
	remaps := func(k int, after bool) {
		if h.remapsAt != nil {
			site, pos := h.ix.Stmts[k], 2*k-1
			if after {
				pos = 2*site.End - 1
			}
			h.remapsAt(site.Stmt, after, func(array string) {
				h.writers = append(h.writers, writer{stmt: site.Stmt, nest: site.Nest, array: array, pos: pos})
			})
		}
	}
	for k, site := range h.ix.Stmts {
		for ; len(open) > 0 && h.ix.Stmts[open[len(open)-1]].End <= k; open = open[:len(open)-1] {
			remaps(open[len(open)-1], true)
		}
		h.order[site.Stmt] = k
		remaps(k, false)
		switch st := site.Stmt.(type) {
		case *ast.Assign:
			if lhs, ok := st.Lhs.(*ast.ArrayRef); ok && h.proc.Symbols.Lookup(lhs.Name) != nil {
				h.writers = append(h.writers, writer{stmt: st, nest: site.Nest, secs: []*rsd.Section{h.lhsSection(lhs, site.Nest)}})
			}
		case *ast.Call:
			if cs := h.node.Site(st); cs != nil {
				h.writers = append(h.writers, writer{stmt: st, site: cs, nest: site.Nest, secs: h.callWrites(cs, site.Nest)})
			}
		}
		open = append(open, k)
	}
	for ; len(open) > 0; open = open[:len(open)-1] {
		remaps(open[len(open)-1], true)
	}
	return h.writers
}

// lhsSection is the element an assignment writes: a subscript that is
// not an anchor widens to the declared extent.
func (h *hoister) lhsSection(ref *ast.ArrayRef, nest []*ast.Do) *rsd.Section {
	sec := &rsd.Section{Array: ref.Name, Dims: make([]rsd.Dim, len(ref.Subs))}
	for d, sub := range ref.Subs {
		if v, c, ok := h.anchor(sub, nest); ok {
			sec.Dims[d] = rsd.SymPoint(v, c)
		} else {
			sec.Dims[d] = declaredDim(h.proc.Symbols.Lookup(ref.Name), d, h.env)
		}
	}
	return sec
}

// callWrites is what the callee at site may write, in the caller's
// names (callSection).
func (h *hoister) callWrites(site *acg.CallSite, nest []*ast.Do) []*rsd.Section {
	var out []*rsd.Section
	if sum := h.sections[site.Callee.Name()]; sum != nil {
		for name, secs := range sum.Writes {
			for _, sec := range secs {
				if target := site.CallerName(name); target != "" {
					out = append(out, callSection(sec, site, siteVars(site), target, h.proc, nest, h.mod, h.env))
				}
			}
		}
	}
	return out
}
