// Package comm implements communication analysis and optimization
// (§3 step 4–5, §5.4, Figure 11): classifying nonlocal references,
// message vectorization driven by dependence level, interprocedural RSD
// summaries of array side effects, and delayed instantiation of
// communication across procedure boundaries.
package comm

import (
	"slices"
	"sort"
	"strings"

	"fortd/internal/acg"
	"fortd/internal/ast"
	"fortd/internal/depend"
	"fortd/internal/partition"
	"fortd/internal/rsd"
	"fortd/internal/sideeffect"
)

// SectionSummary holds the interprocedural regular-section summaries of
// one procedure: the regions of formal-parameter and common arrays it
// (or its descendants) may write and read, expressed in the procedure's
// own name space. Dimensions indexed by formal scalars are kept
// symbolic (anchored), which is what lets callers expand them over
// their own loops. Kills holds the arrays it surely overwrites whole
// (the must-writes §6.3's kill test needs; Writes are may-writes).
type SectionSummary struct {
	Writes map[string][]*rsd.Section
	Reads  map[string][]*rsd.Section
	Kills  map[string]bool
}

func newSectionSummary() *SectionSummary {
	return &SectionSummary{
		Writes: map[string][]*rsd.Section{},
		Reads:  map[string][]*rsd.Section{},
		Kills:  map[string]bool{},
	}
}

// Key renders the summary canonically for a cache key: one sorted part
// per section ("" for nil).
func (s *SectionSummary) Key() string {
	if s == nil {
		return ""
	}
	var parts []string
	for i, m := range [2]map[string][]*rsd.Section{s.Writes, s.Reads} {
		for arr, secs := range m {
			for _, sec := range secs {
				parts = append(parts, "WR"[i:i+1]+" "+arr+" "+sec.String())
			}
		}
	}
	for arr := range s.Kills {
		parts = append(parts, "K "+arr)
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}

func (s *SectionSummary) addWrite(sec *rsd.Section) {
	s.Writes[sec.Array] = rsd.MergeList(append(s.Writes[sec.Array], sec))
}

func (s *SectionSummary) addRead(sec *rsd.Section) {
	s.Reads[sec.Array] = rsd.MergeList(append(s.Reads[sec.Array], sec))
}

// ComputeSections builds section summaries for every procedure,
// bottom-up over the acyclic call graph (the interprocedural RSD
// propagation of §5.4: "references within a procedure are put into RSD
// form ... propagated to calling procedures and translated"). local
// returns a unit's index and the summary of its local pass
// (LocalSections), which is a CALL-free unit's; fx says which scalars a
// caller may assign (nil: none); see callSection.
func ComputeSections(g *acg.Graph, fx *sideeffect.Analysis, local func(*ast.Procedure) (*SectionSummary, *ast.Index)) map[string]*SectionSummary {
	out := map[string]*SectionSummary{}
	for _, n := range g.ReverseTopoOrder() {
		sum, ix := local(n.Proc)
		if sum == nil {
			sum = procSections(n, ix, assigned(fx, n.Proc), out)
		}
		out[n.Name()] = sum
	}
	return out
}

// LocalSections is the local pass of section analysis over one unit,
// whose index is ix: its summary if it has no CALL (which nothing
// writes), else nil.
func LocalSections(proc *ast.Procedure, ix *ast.Index) *SectionSummary {
	if len(ix.Calls) > 0 {
		return nil
	}
	return procSections(&acg.Node{Proc: proc}, ix, nil, nil)
}

// assigned returns what proc or a procedure it calls may assign.
func assigned(fx *sideeffect.Analysis, proc *ast.Procedure) sideeffect.Set {
	if fx == nil || fx.Summaries[proc.Name] == nil {
		return nil
	}
	return fx.Summaries[proc.Name].Mod
}

// procSections summarizes n, whose unit ix indexes.
func procSections(n *acg.Node, ix *ast.Index, mod sideeffect.Set, done map[string]*SectionSummary) *SectionSummary {
	proc := n.Proc
	sum := newSectionSummary()
	env := proc.Constants()
	// a statement is sure to run when no IF, no RETURN before it and no
	// loop around it that may run no iteration or return stands in its
	// way; scopes are the DOs and IFs around the statement, innermost
	// last, each with whether what it holds is sure to run
	type scope struct {
		end  int
		sure bool
	}
	scopes := []scope{{len(ix.Stmts), true}}
	returned := false
	for k, site := range ix.Stmts {
		for scopes[len(scopes)-1].end <= k {
			scopes = scopes[:len(scopes)-1]
		}
		sure, nest := scopes[len(scopes)-1].sure && !returned, site.Nest
		switch st := site.Stmt.(type) {
		case *ast.Assign:
			for _, ref := range ix.RefsOf(k) {
				sec := RefSection(proc, ref.ArrayRef, nest, env)
				switch {
				case sec == nil:
				case !ref.Write:
					sum.addRead(sec)
				default:
					sum.addWrite(sec)
					if sure && sweeps(proc, sec, ref.ArrayRef, nest, env) {
						sum.Kills[ref.Name] = true
					}
				}
			}
		case *ast.Do:
			scopes = append(scopes, scope{site.End, sure && st.Norm(env).Trip > 0 && !st.Returns()})
		case *ast.If:
			for _, ref := range ix.RefsOf(k) {
				if sec := RefSection(proc, ref.ArrayRef, nest, env); sec != nil {
					sum.addRead(sec)
				}
			}
			scopes = append(scopes, scope{site.End, false})
		case *ast.Return:
			returned = true
		case *ast.Call:
			cs := n.Site(st)
			callee := done[st.Name]
			if cs == nil || callee == nil {
				continue
			}
			for _, secs := range callee.Writes {
				for _, sec := range secs {
					if t := TranslateSection(sec, cs, proc, nest, mod, env); t != nil {
						sum.addWrite(t)
					}
				}
			}
			for _, secs := range callee.Reads {
				for _, sec := range secs {
					if t := TranslateSection(sec, cs, proc, nest, mod, env); t != nil {
						sum.addRead(t)
					}
				}
			}
			for name := range callee.Kills {
				if arr := cs.CallerName(name); sure && arr != "" {
					sum.Kills[arr] = true
				}
			}
		}
	}

	if !proc.IsMain {
		visible(n, sum.Writes)
		visible(n, sum.Reads)
		visible(n, sum.Kills)
	}
	return sum
}

// visible keeps only the names of m that n's callers see (formals,
// commons, declared here or not); purely local arrays cannot be
// summarized upward.
func visible[V any](n *acg.Node, m map[string]V) {
	for name := range m {
		if sym := n.Lookup(name); sym == nil || (!sym.IsFormal && sym.Common == "") {
			delete(m, name)
		}
	}
}

// sweeps reports whether the write ref, whose section is sec, inside
// loops nest that each run, assigns all of its array: sec covers the
// declared extent, and no dimension was widened to get there, for each
// subscript is its own loop's index plus a constant.
func sweeps(proc *ast.Procedure, sec *rsd.Section, ref *ast.ArrayRef, nest []*ast.Do, env ast.Env) bool {
	sym := proc.Symbols.Lookup(ref.Name)
	if sec == nil || len(sec.Dims) != len(sym.Dims) {
		return false
	}
	for d, dim := range sec.Dims {
		if full := declaredDim(sym, d, env); dim.LoVar != "" || dim.HiVar != "" || dim.Step != 1 || dim.Lo > full.Lo || dim.Hi < full.Hi {
			return false
		}
	}
	var loops []*ast.Do
	for _, sub := range ref.Subs {
		v, a, _, ok := depend.LinearSubscript(sub, env)
		loop := partition.LoopFor(nest, v)
		if !ok || a != 1 || loop == nil || slices.Contains(loops, loop) {
			return false
		}
		loops = append(loops, loop)
	}
	return true
}

// RefSection converts one array reference into a regular section: loop
// variables with constant bounds expand to their ranges, formal scalars
// stay symbolic, and anything else widens to the declared extent.
func RefSection(proc *ast.Procedure, ref *ast.ArrayRef, nest []*ast.Do, env ast.Env) *rsd.Section {
	sym := proc.Symbols.Lookup(ref.Name)
	if sym == nil || sym.Kind != ast.SymArray {
		return nil
	}
	dims := make([]rsd.Dim, len(ref.Subs))
	for d, sub := range ref.Subs {
		dims[d] = SubDim(proc, sym, d, sub, nest, env)
	}
	return &rsd.Section{Array: ref.Name, Dims: dims}
}

// SubDim converts one subscript into an RSD dimension.
func SubDim(proc *ast.Procedure, sym *ast.Symbol, d int, sub ast.Expr, nest []*ast.Do, env ast.Env) rsd.Dim {
	v, a, c, ok := depend.LinearSubscript(sub, env)
	if ok {
		switch {
		case v == "":
			return rsd.Point(c)
		case a == 1 || a == -1 || a > 1:
			if loop := partition.LoopFor(nest, v); loop != nil {
				n := loop.Norm(env)
				if n.Trip >= 0 {
					if a > 0 {
						return rsd.Strided(a*n.Min+c, a*n.Max+c, a*abs(n.Step))
					}
					return rsd.Strided(a*n.Max+c, a*n.Min+c, -a*abs(n.Step))
				}
				// unit stride under bounds affine in formals: the range
				// the loop reads, each end under its own anchor (§5.4)
				if a == 1 && n.Step == 1 {
					loV, loC, okLo := outerAffine(proc, loop.Lo, env)
					hiV, hiC, okHi := outerAffine(proc, loop.Hi, env)
					if okLo && okHi {
						return rsd.Dim{Lo: loC + c, Hi: hiC + c, Step: 1, LoVar: loV, HiVar: hiV}
					}
				}
				// anything else widens to the declared extent
				return declaredDim(sym, d, env)
			}
			if s := proc.Symbols.Lookup(v); s != nil && (s.IsFormal || s.Common != "") && a == 1 {
				return rsd.SymPoint(v, c)
			}
		}
	}
	return declaredDim(sym, d, env)
}

// outerAffine decomposes a loop bound as v + c for a formal or COMMON
// scalar v of proc (v == "": a constant).
func outerAffine(proc *ast.Procedure, e ast.Expr, env ast.Env) (string, int, bool) {
	v, a, c, ok := depend.LinearSubscript(e, env)
	return v, c, ok && (v == "" || a == 1 && isOuterVar(proc, v))
}

// UnknownExtent is what a dimension widens to where its declared bounds
// are not known. It only makes a dependence or kill test conservative:
// an array without a constant declared shape has no distribution, so no
// communication is instantiated for it, and codegen refuses the section.
var UnknownExtent = rsd.Range(1, 1<<20)

func declaredDim(sym *ast.Symbol, d int, env ast.Env) rsd.Dim {
	if d >= len(sym.Dims) {
		return rsd.Range(1, 1)
	}
	lo, okLo := ast.EvalInt(sym.Dims[d].Lo, env)
	hi, okHi := ast.EvalInt(sym.Dims[d].Hi, env)
	if !okLo || !okHi {
		return UnknownExtent // adjustable bounds
	}
	return rsd.Range(lo, hi)
}

// callerAnchor is the caller's name at site for the callee's anchor v,
// and the constant to add: the bare name of the actual bound to a
// formal (a variable, or an array element's array), the variable and
// the constant of an actual v ± c, a COMMON variable's own name, and no
// anchor for none. ok is false where the caller cannot name it.
func callerAnchor(site *acg.CallSite, v string, env ast.Env) (name string, off int, ok bool) {
	if v == "" {
		return "", 0, true
	}
	if sym := site.Callee.Lookup(v); sym != nil && sym.IsFormal && site.Bindings[sym.FormalIndex].ActualName == "" {
		w, coef, c, linear := depend.LinearSubscript(site.Bindings[sym.FormalIndex].Actual, env)
		return w, c, linear && coef == 1
	}
	name = site.CallerName(v)
	return name, 0, name != ""
}

// callSection renames a callee-space section into the caller's name
// space: the array becomes array and every anchor becomes what the
// caller names it by (callerAnchor). The caller must be able to name an
// anchor wherever it places or tests the section: a dimension anchored
// where it cannot, or at a scalar the caller may assign (mod) other
// than as the index of a loop around the call (nest), widens to the
// array's declared extent.
func callSection(sec *rsd.Section, site *acg.CallSite, array string, caller *ast.Procedure, nest []*ast.Do, mod sideeffect.Set, env ast.Env) *rsd.Section {
	out := sec.Clone()
	out.Array = array
	named := func(v string) (string, int, bool) {
		a, off, ok := callerAnchor(site, v, env)
		return a, off, ok && !(mod.Has(a) && partition.LoopFor(nest, a) == nil)
	}
	for i := range out.Dims {
		d := &out.Dims[i]
		lo, loOff, okLo := named(d.LoVar)
		hi, hiOff, okHi := named(d.HiVar)
		if !okLo || !okHi {
			*d = declaredDim(site.Caller.Lookup(array), i, env)
			continue
		}
		d.LoVar, d.Lo, d.HiVar, d.Hi = lo, d.Lo+loOff, hi, d.Hi+hiOff
	}
	return out
}

// TranslateSection maps a callee-space section through a call site into
// the caller's space: the array is renamed formal→actual, symbolic
// anchors naming formal scalars are renamed to the actuals, and anchors
// that land on caller loop variables with constant bounds are expanded
// (Bind) — the upward half of the Translate function of Figure 6
// applied to RSDs.
func TranslateSection(sec *rsd.Section, site *acg.CallSite, caller *ast.Procedure, nest []*ast.Do, mod sideeffect.Set, env ast.Env) *rsd.Section {
	actual := site.CallerName(sec.Array)
	if actual == "" {
		return nil
	}
	out := callSection(sec, site, actual, caller, nest, mod, env)
	// expand anchors that are loop variables of the caller
	for i := len(nest) - 1; i >= 0; i-- {
		out = bindConst(out, nest[i], env)
	}
	return out
}

// bindConst expands sec's anchor at loop's index over the values the
// index takes where the loop's bounds are constants.
func bindConst(sec *rsd.Section, loop *ast.Do, env ast.Env) *rsd.Section {
	n := loop.Norm(env)
	if !n.Const || !sec.Anchors(loop.Var) {
		return sec
	}
	return sec.Bind(loop.Var, rsd.Range(n.Min, n.Max))
}
