// Package reach implements interprocedural reaching decompositions
// (§5.2, Figure 6) and procedure cloning (Figure 8).
//
// Reaching decompositions determine, for every point in the program,
// which data decomposition applies to each distributed array. Locally
// the problem is solved like reaching definitions, with each ALIGN /
// DISTRIBUTE statement acting as a definition; a ⊤ placeholder marks
// variables whose decomposition is inherited from the caller. The
// interprocedural solution is computed in one top-down pass over the
// acyclic augmented call graph: Reaching(P) is the union of the
// translated LocalReaching sets of P's call sites, and ⊤ elements are
// then expanded in place.
//
// When distinct decompositions reach the same procedure, cloning
// creates one copy per decomposition signature (filtered by Appear(P)
// to avoid cloning for unreferenced variables), falling back to
// run-time resolution once a growth threshold is exceeded.
package reach

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"fortd/internal/acg"
	"fortd/internal/ast"
	"fortd/internal/decomp"
	"fortd/internal/explain"
	"fortd/internal/sideeffect"
)

// DSet is a set of decompositions that may reach a variable, possibly
// including the ⊤ placeholder for an inherited decomposition. A set is
// never written once built (Union returns a new one), so a value may be
// shared freely.
type DSet struct {
	Top bool
	Ds  map[string]decomp.Decomp
}

// NewDSet builds a set from decompositions.
func NewDSet(ds ...decomp.Decomp) DSet {
	s := DSet{Ds: map[string]decomp.Decomp{}}
	for _, d := range ds {
		s.Ds[d.Key()] = d
	}
	return s
}

// TopSet returns the ⊤-only set.
func TopSet() DSet { return DSet{Top: true, Ds: map[string]decomp.Decomp{}} }

// Union returns s ∪ o: s itself when o adds nothing, else a new set.
func (s DSet) Union(o DSet) DSet {
	grows := o.Top && !s.Top
	for k := range o.Ds {
		if _, ok := s.Ds[k]; !ok {
			grows = true
			break
		}
	}
	if !grows {
		return s
	}
	out := DSet{Top: s.Top || o.Top, Ds: make(map[string]decomp.Decomp, len(s.Ds)+len(o.Ds))}
	for k, d := range s.Ds {
		out.Ds[k] = d
	}
	for k, d := range o.Ds {
		out.Ds[k] = d
	}
	return out
}

// Single returns the unique decomposition and true when the set has
// exactly one element and no ⊤.
func (s DSet) Single() (decomp.Decomp, bool) {
	if s.Top || len(s.Ds) != 1 {
		return decomp.Decomp{}, false
	}
	for _, d := range s.Ds {
		return d, true
	}
	return decomp.Decomp{}, false
}

// Empty reports whether nothing reaches.
func (s DSet) Empty() bool { return !s.Top && len(s.Ds) == 0 }

// Key returns a canonical signature for partitioning call sites.
func (s DSet) Key() string {
	keys := make([]string, 0, len(s.Ds)+1)
	if s.Top {
		keys = append(keys, "⊤")
	}
	for k := range s.Ds {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, "|")
}

func (s DSet) String() string { return "{" + s.Key() + "}" }

// ---------------------------------------------------------------------------
// Per-procedure decomposition state

// alignInfo records one ALIGN statement's effect.
type alignInfo struct {
	target string
	terms  []ast.AlignTerm
}

// State tracks the decompositions reaching each variable at a program
// point during the forward walk of one procedure.
type State struct {
	proc *ast.Procedure
	// arr maps array names to their reaching decomposition sets.
	arr map[string]DSet
	// decompSpecs maps decomposition symbols to their current formats.
	decompSpecs map[string]decomp.Decomp
	// aligns maps arrays to their alignment targets.
	aligns map[string]alignInfo
}

// NewState builds the entry state of proc: formals and common variables
// inherit ⊤ (or the supplied reaching decompositions), local arrays
// start replicated, and a COMMON array that reaches proc without proc
// declaring its block passes through as it reached.
func NewState(proc *ast.Procedure, reaching map[string]DSet) *State {
	st := &State{
		proc:        proc,
		arr:         map[string]DSet{},
		decompSpecs: map[string]decomp.Decomp{},
		aligns:      map[string]alignInfo{},
	}
	top, rep := TopSet(), NewDSet(decomp.Replicated) // sets are shared
	for _, sym := range proc.Symbols.Symbols() {
		if sym.Kind != ast.SymArray {
			continue
		}
		switch {
		case (sym.IsFormal || sym.Common != "") && !proc.IsMain:
			if r, ok := reaching[sym.Name]; ok {
				st.arr[sym.Name] = r
			} else {
				st.arr[sym.Name] = top
			}
		default:
			st.arr[sym.Name] = rep
		}
	}
	for name, set := range reaching {
		if proc.Symbols.Lookup(name) == nil {
			st.arr[name] = set
		}
	}
	return st
}

// clone copies the state (for branch merging); the sets are shared.
func (st *State) clone() *State {
	return &State{
		proc:        st.proc,
		arr:         maps.Clone(st.arr),
		decompSpecs: maps.Clone(st.decompSpecs),
		aligns:      maps.Clone(st.aligns),
	}
}

// merge unions o into st.
func (st *State) merge(o *State) {
	for k, v := range o.arr {
		if cur, ok := st.arr[k]; ok {
			st.arr[k] = cur.Union(v)
		} else {
			st.arr[k] = v
		}
	}
	for k, v := range o.aligns {
		st.aligns[k] = v
	}
	for k, v := range o.decompSpecs {
		st.decompSpecs[k] = v
	}
}

// Arrays maps every array st tracks, its procedure's and the COMMON
// arrays passing through it, to the decompositions reaching it now.
func (st *State) Arrays() map[string]DSet { return st.arr }

// Lookup returns the decomposition set currently reaching array name.
func (st *State) Lookup(name string) DSet {
	if s, ok := st.arr[name]; ok {
		return s
	}
	return NewDSet(decomp.Replicated)
}

// Apply updates the state for one statement (directives change it,
// everything else leaves it alone) and returns the arrays it gave a
// distribution: an array aligned with a DECOMPOSITION not yet
// distributed is replicated in the state but not returned. Nested statements are NOT walked; callers drive
// the traversal so that they can observe intermediate states (the
// paper's "repeat the calculation of LocalReaching during code
// generation").
func (st *State) Apply(s ast.Stmt) (set []string) {
	switch d := s.(type) {
	case *ast.Decomposition:
		st.decompSpecs[d.Name] = decomp.Replicated
	case *ast.Align:
		st.aligns[d.Array] = alignInfo{target: d.Target, terms: d.Terms}
		set = st.recomputeAligned(d.Array, set)
	case *ast.Distribute:
		// The target may be a DECOMPOSITION symbol or an array (arrays
		// may be distributed — and serve as alignment targets —
		// directly, via their implicit default decomposition).
		st.decompSpecs[d.Target] = decomp.NewDecomp(d.Specs...)
		sym := st.proc.Symbols.Lookup(d.Target)
		if sym == nil || sym.Kind != ast.SymDecomposition {
			st.arr[d.Target] = NewDSet(decomp.NewDecomp(d.Specs...))
			set = append(set, d.Target)
		}
		for arr, ai := range st.aligns {
			if ai.target == d.Target {
				set = st.recomputeAligned(arr, set)
			}
		}
	}
	return set
}

// recomputeAligned sets arr's decomposition from its alignment target's,
// if the target has one, and appends arr to set if the target is
// distributed.
func (st *State) recomputeAligned(arr string, set []string) []string {
	ai := st.aligns[arr]
	target, ok := st.decompSpecs[ai.target]
	if !ok {
		return set
	}
	sym := st.proc.Symbols.Lookup(arr)
	rank := 1
	if sym != nil {
		rank = sym.NumDims()
	}
	st.arr[arr] = NewDSet(decomp.ApplyAlign(ai.terms, target, rank))
	if len(target.Specs) == 0 { // a DECOMPOSITION no DISTRIBUTE has reached
		return set
	}
	return append(set, arr)
}

// WalkBody drives the state through a statement list, calling visit for
// every statement with the state *before* the statement takes effect.
// Branches are merged; loop bodies are walked twice so decomposition
// changes in an iteration reach the loop top. A body without a directive
// cannot change the state, so it is walked once, in the state as it is.
func (st *State) WalkBody(body []ast.Stmt, visit func(s ast.Stmt, st *State)) {
	for _, s := range body {
		if visit != nil {
			visit(s, st)
		}
		switch x := s.(type) {
		case *ast.Do:
			if directive(x.Body) { // two passes for fixpoint over dynamic redistribution
				snapshot := st.clone()
				st.WalkBody(x.Body, nil)
				st.merge(snapshot)
			}
			st.WalkBody(x.Body, visit)
		case *ast.If:
			if !directive(x.Then) && !directive(x.Else) {
				st.WalkBody(x.Then, visit)
				st.WalkBody(x.Else, visit)
				break
			}
			thenSt := st.clone()
			thenSt.WalkBody(x.Then, visit)
			elseSt := st.clone()
			elseSt.WalkBody(x.Else, visit)
			*st = *thenSt
			st.merge(elseSt)
		default:
			st.Apply(s)
		}
	}
}

// directive reports whether body holds a DECOMPOSITION, ALIGN or DISTRIBUTE at any depth.
func directive(body []ast.Stmt) (found bool) {
	ast.WalkStmts(body, func(s ast.Stmt) bool {
		switch s.(type) {
		case *ast.Decomposition, *ast.Align, *ast.Distribute:
			found = true
		}
		return !found
	})
	return found
}

// ---------------------------------------------------------------------------
// Interprocedural analysis

// SiteReaching is LocalReaching(C): the decomposition sets of the
// array-valued actual parameters and common arrays at call site C,
// keyed by caller-side variable name.
type SiteReaching map[string]DSet

// Result is the program-wide reaching decomposition solution after any
// cloning has been applied.
type Result struct {
	Graph *acg.Graph
	// Reaching maps procedure → variable → reaching set at entry.
	Reaching map[string]map[string]DSet
	// Sites maps call-site statements to their LocalReaching sets.
	Sites map[*ast.Call]SiteReaching
	// ClonedFrom maps clone names to their original procedure.
	ClonedFrom map[string]string
	// RuntimeResolution lists procedures left with multiple reaching
	// decompositions for some variable (cloning limit hit): the code
	// generator must fall back to run-time resolution for them.
	RuntimeResolution map[string][]string
}

// Options controls the analysis.
type Options struct {
	// CloneLimit bounds the number of clones created program-wide; 0
	// means no cloning (always run-time resolution on conflicts).
	CloneLimit int
	// Explain receives optimization remarks (nil = disabled).
	Explain *explain.Collector
}

// DefaultOptions enables cloning with a generous limit.
func DefaultOptions() Options { return Options{CloneLimit: 64} }

// Analyze runs reaching decompositions with cloning over the program
// behind g. Cloning edits g.Program's unit list, which must be the
// caller's to change, but no unit or statement; the returned Result
// carries the rebuilt graph.
func Analyze(g *acg.Graph, opts Options) (*Result, error) {
	ex := opts.Explain
	clones := 0
	cloneNames := map[string]string{}
	for {
		res := propagate(g)
		victim, partitions := findCloneCandidate(g, res)
		if victim == nil || clones+len(partitions) > opts.CloneLimit {
			// nothing to clone, or the growth threshold is exceeded: no
			// more cloning, and run-time resolution for what is left
			// (§5.2 "cloning may be disabled when a threshold program
			// growth has been exceeded")
			if victim != nil && ex.Enabled() {
				ex.Add(explain.Remark{
					Kind: explain.Missed, Pass: "reach", Proc: victim.Name(), Name: "clone",
					Msg: fmt.Sprintf("cloning %s into %d variants would exceed the clone limit (%d used of %d) — falling back to run-time resolution",
						victim.Name(), len(partitions), clones, opts.CloneLimit),
				})
			}
			res.ClonedFrom = cloneNames
			res.finalize(g)
			res.explainRemarks(g, ex)
			return res, nil
		}
		if err := applyCloning(g, victim, partitions, cloneNames); err != nil {
			return nil, err
		}
		if ex.Enabled() {
			names := make([]string, 0, len(partitions))
			for _, site := range g.Program.Units {
				if cloneNames[site.Name] != "" && strings.HasPrefix(site.Name, victim.Name()+"$") {
					names = append(names, site.Name)
				}
			}
			sort.Strings(names)
			ex.Add(explain.Remark{
				Kind: explain.Applied, Pass: "reach", Proc: victim.Name(), Name: "clone",
				Msg: fmt.Sprintf("%d distinct decomposition signatures reach %s: cloned into %s (%d of %d clone budget used)",
					len(partitions), victim.Name(), strings.Join(names, ", "),
					clones+len(partitions)-1, opts.CloneLimit),
			})
		}
		clones += len(partitions) - 1
		if err := g.Rebuild(); err != nil {
			return nil, err
		}
	}
}

// explainRemarks emits the final solution as remarks: the reaching
// decomposition set at every call site, and a missed-remark for every
// procedure left to run-time resolution.
func (res *Result) explainRemarks(g *acg.Graph, ex *explain.Collector) {
	if !ex.Enabled() {
		return
	}
	for _, n := range g.TopoOrder() {
		for _, site := range n.Calls {
			local := res.Sites[site.Stmt]
			if len(local) == 0 {
				continue
			}
			vars := make([]string, 0, len(local))
			for v := range local {
				vars = append(vars, v)
			}
			sort.Strings(vars)
			parts := make([]string, 0, len(vars))
			for _, v := range vars {
				parts = append(parts, v+"="+local[v].String())
			}
			ex.Add(explain.Remark{
				Kind: explain.Note, Pass: "reach", Proc: n.Name(), Line: site.Stmt.Pos().Line, Name: "reaching",
				Msg: fmt.Sprintf("call %s: %s", site.Stmt.Name, strings.Join(parts, ", ")),
			})
		}
	}
	for _, n := range g.TopoOrder() {
		multi := res.RuntimeResolution[n.Name()]
		if len(multi) == 0 {
			continue
		}
		sets := make([]string, 0, len(multi))
		for _, v := range multi {
			sets = append(sets, v+"="+res.Reaching[n.Name()][v].String())
		}
		ex.Add(explain.Remark{
			Kind: explain.Missed, Pass: "reach", Proc: n.Name(), Name: "runtime-resolution",
			Msg: fmt.Sprintf("%s needs run-time resolution: multiple decompositions still reach %s after cloning",
				n.Name(), strings.Join(sets, ", ")),
		})
	}
}

// propagate performs the local-analysis and top-down propagation phases
// of Figure 6 over the current program.
func propagate(g *acg.Graph) *Result {
	res := &Result{
		Graph:             g,
		Reaching:          map[string]map[string]DSet{},
		Sites:             map[*ast.Call]SiteReaching{},
		RuntimeResolution: map[string][]string{},
	}
	for _, n := range g.TopoOrder() {
		proc := n.Proc
		// Reaching(P) = ∪ Translate(LocalReaching(C)) over processed callers
		reaching := map[string]DSet{}
		for _, site := range n.Callers {
			local := res.Sites[site.Stmt]
			if local == nil {
				continue
			}
			for formal, set := range translateSite(site, local, g.Commons) {
				if cur, ok := reaching[formal]; ok {
					reaching[formal] = cur.Union(set)
				} else {
					reaching[formal] = set
				}
			}
		}
		res.Reaching[proc.Name] = reaching
		if len(n.Calls) == 0 && !n.External {
			continue // a unit without a CALL records nothing
		}

		// local walk: record LocalReaching at each call site, expanding
		// ⊤ with Reaching(P) (the update step of Figure 6)
		st := NewState(proc, reaching)
		st.WalkBody(proc.Body, func(s ast.Stmt, st *State) {
			call, ok := s.(*ast.Call)
			if !ok {
				return
			}
			local := SiteReaching{}
			record := func(name string) {
				set := st.Lookup(name)
				if set.Top {
					// expand ⊤ using Reaching(P); if nothing reaches
					// (e.g. entry procedure), keep ⊤ unresolved
					if r, ok := reaching[name]; ok && !r.Empty() {
						set.Top = false
						set = set.Union(r)
					}
				}
				local[name] = set
			}
			for _, a := range call.Args {
				if id, ok := a.(*ast.Ident); ok {
					if sym := proc.Symbols.Lookup(id.Name); sym != nil && sym.Kind == ast.SymArray {
						record(id.Name)
					}
				}
			}
			// COMMON arrays pass to the callee by name, whether or not
			// it declares their block (its callees may)
			for name, sym := range g.Commons {
				if sym.Kind == ast.SymArray {
					record(name)
				}
			}
			res.Sites[call] = local
		})
	}
	return res
}

// translateSite maps a caller-side LocalReaching set into the callee's
// name space (Translate of Figure 6).
func translateSite(site *acg.CallSite, local SiteReaching, commons map[string]*ast.Symbol) map[string]DSet {
	out := map[string]DSet{}
	for _, b := range site.Bindings {
		if b.ActualName == "" {
			continue
		}
		if set, ok := local[b.ActualName]; ok {
			if cur, exists := out[b.Formal]; exists {
				out[b.Formal] = cur.Union(set)
			} else {
				out[b.Formal] = set
			}
		}
	}
	// COMMON arrays are simply copied
	for name, sym := range commons {
		if set, ok := local[name]; ok && sym.Kind == ast.SymArray {
			out[name] = set
		}
	}
	return out
}

// finalize flags variables that still have multiple reaching
// decompositions (run-time resolution fallback).
func (res *Result) finalize(g *acg.Graph) {
	for _, n := range g.TopoOrder() {
		var multi []string
		for v, set := range res.Reaching[n.Name()] {
			if _, ok := set.Single(); !ok && !set.Empty() {
				multi = append(multi, v)
			}
		}
		if len(multi) > 0 {
			sort.Strings(multi)
			res.RuntimeResolution[n.Name()] = multi
		}
	}
}

// ---------------------------------------------------------------------------
// Procedure cloning (Figure 8)

// partition groups the call sites of one procedure that provide the
// same (filtered) decomposition signature.
type partition struct {
	key   string
	sites []*acg.CallSite
	// reaching is the translated, filtered reaching map of the group.
	reaching map[string]DSet
}

// findCloneCandidate looks for the first procedure (in topological
// order) whose call sites partition into more than one signature under
// Filter(Translate(LocalReaching(C)), Appear(P)).
func findCloneCandidate(g *acg.Graph, res *Result) (*acg.Node, []*partition) {
	var se *sideeffect.Analysis // only a procedure with two callers asks
	for _, n := range g.TopoOrder() {
		if len(n.Callers) < 2 {
			continue
		}
		if se == nil {
			se = sideeffect.Compute(g, sideeffect.Own)
		}
		appear := se.AppearSet(n.Name())
		groups := map[string]*partition{}
		var order []string
		for _, site := range n.Callers {
			local := res.Sites[site.Stmt]
			translated := translateSite(site, local, g.Commons)
			filtered := map[string]DSet{}
			for v, set := range translated {
				if appear.Has(v) {
					filtered[v] = set
				}
			}
			key := signature(filtered)
			grp, ok := groups[key]
			if !ok {
				grp = &partition{key: key, reaching: filtered}
				groups[key] = grp
				order = append(order, key)
			} else {
				for v, set := range filtered {
					if cur, ok := grp.reaching[v]; ok {
						grp.reaching[v] = cur.Union(set)
					} else {
						grp.reaching[v] = set
					}
				}
			}
			grp.sites = append(grp.sites, site)
		}
		if len(groups) > 1 {
			parts := make([]*partition, 0, len(groups))
			for _, k := range order {
				parts = append(parts, groups[k])
			}
			return n, parts
		}
	}
	return nil, nil
}

func signature(m map[string]DSet) string {
	keys := make([]string, 0, len(m))
	for v := range m {
		keys = append(keys, v)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, v := range keys {
		parts = append(parts, v+"="+m[v].Key())
	}
	return strings.Join(parts, ";")
}

// applyCloning replaces victim with one clone per partition, renaming
// the call sites of each partition to its clone. It writes no statement:
// a caller whose call sites are renamed is replaced by a renamed copy.
func applyCloning(g *acg.Graph, victim *acg.Node, parts []*partition, cloneNames map[string]string) error {
	prog := g.Program
	base := victim.Proc.Name
	orig := base
	if o, ok := cloneNames[base]; ok {
		orig = o
	}
	used := map[string]bool{}
	for _, u := range prog.Units {
		used[u.Name] = true
	}
	to := map[*ast.Call]string{}
	for i, part := range parts {
		name := base + "$" + prettySuffix(part, i)
		for used[name] {
			name += "x"
		}
		used[name] = true
		clone := ast.CloneProcedure(victim.Proc, name)
		prog.AddProc(clone)
		cloneNames[name] = orig
		for _, site := range part.sites {
			to[site.Stmt] = name
		}
	}
	for _, site := range victim.Callers {
		caller := site.Caller.Proc
		if prog.Proc(caller.Name) != caller {
			continue // copied for an earlier site
		}
		// the copy lists its calls in the order the original does
		var calls []*ast.Call
		collect := func(s ast.Stmt) bool {
			if c, ok := s.(*ast.Call); ok {
				calls = append(calls, c)
			}
			return true
		}
		cp := ast.CloneProcedure(caller, caller.Name)
		ast.WalkStmts(caller.Body, collect)
		ast.WalkStmts(cp.Body, collect)
		for i, c := range calls[:len(calls)/2] {
			if name, ok := to[c]; ok {
				calls[len(calls)/2+i].Name = name
			}
		}
		prog.ReplaceProc(cp)
	}
	// remove the original unit (now uncalled); keep it if it is main
	if !victim.Proc.IsMain {
		units := make([]*ast.Procedure, 0, len(prog.Units))
		for _, u := range prog.Units {
			if u != victim.Proc {
				units = append(units, u)
			}
		}
		prog.Units = units
	}
	return nil
}

// prettySuffix names clones after the paper's convention where the
// signature permits (F1$row / F1$col for row- and column-distributed
// two-dimensional arrays), falling back to a numeric suffix.
func prettySuffix(part *partition, idx int) string {
	if len(part.reaching) == 1 {
		for _, set := range part.reaching {
			if d, ok := set.Single(); ok {
				switch d.Key() {
				case "(BLOCK,:)":
					return "row"
				case "(:,BLOCK)":
					return "col"
				case "(BLOCK)":
					return "blk"
				case "(CYCLIC)":
					return "cyc"
				case "(CYCLIC,:)":
					return "rowcyc"
				case "(:,CYCLIC)":
					return "colcyc"
				}
			}
		}
	}
	return fmt.Sprintf("%d", idx+1)
}
