// Package overlap implements overlap calculation (§5.6, Figure 13).
// Overlap regions extend the local bounds of a distributed array so
// nonlocal boundary data fetched from neighbors can be stored in place
// (Gerndt's overlaps). Because multidimensional arrays must be declared
// with consistent sizes across procedures, overlap extents must agree
// program-wide; the compiler therefore *estimates* overlaps from the
// constant subscript offsets collected during local analysis,
// propagates the estimates over the call graph, and explains each
// procedure's estimates against the shifts its generated communication
// needs. Where the estimate is too small the executor receives into a
// site buffer instead of the overlap region.
package overlap

import (
	"fmt"
	"maps"
	"sort"

	"fortd/internal/acg"
	"fortd/internal/ast"
	"fortd/internal/depend"
	"fortd/internal/explain"
)

// Offsets records, per array dimension, how far subscripts reach below
// and above the loop-aligned index (non-negative magnitudes).
type Offsets struct {
	Lo, Hi []int
}

// NewOffsets returns zero offsets of the given rank.
func NewOffsets(rank int) *Offsets {
	return &Offsets{Lo: make([]int, rank), Hi: make([]int, rank)}
}

// Merge widens o to cover other, reporting whether o changed.
func (o *Offsets) Merge(other *Offsets) bool {
	changed := false
	for i := range o.Lo {
		if i < len(other.Lo) && other.Lo[i] > o.Lo[i] {
			o.Lo[i] = other.Lo[i]
			changed = true
		}
		if i < len(other.Hi) && other.Hi[i] > o.Hi[i] {
			o.Hi[i] = other.Hi[i]
			changed = true
		}
	}
	return changed
}

// Covers reports whether o is at least as wide as other in every
// dimension.
func (o *Offsets) Covers(other *Offsets) bool {
	for i := range other.Lo {
		if i >= len(o.Lo) {
			return false
		}
		if other.Lo[i] > o.Lo[i] || other.Hi[i] > o.Hi[i] {
			return false
		}
	}
	return true
}

// Zero reports whether no overlap is needed.
func (o *Offsets) Zero() bool {
	for i := range o.Lo {
		if o.Lo[i] != 0 || o.Hi[i] != 0 {
			return false
		}
	}
	return true
}

func (o *Offsets) String() string {
	s := "("
	for i := range o.Lo {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("{-%d,+%d}", o.Lo[i], o.Hi[i])
	}
	return s + ")"
}

// Clone copies o.
func (o *Offsets) Clone() *Offsets {
	return &Offsets{Lo: append([]int(nil), o.Lo...), Hi: append([]int(nil), o.Hi...)}
}

// Analysis holds the program's overlap estimates. It is read-only once
// ComputeEstimates returns.
type Analysis struct {
	// Estimates maps procedure → array → estimated offsets.
	Estimates map[string]map[string]*Offsets
}

// Use is one overlap a procedure's generated communication needs: a
// shift extending dimension Dim of Array by Lo below and Hi above.
type Use struct {
	Array       string
	Dim, Lo, Hi int
}

// ComputeEstimates runs the local-analysis and propagation phases of
// Figure 13: collect constant subscript offsets per procedure (local:
// LocalOffsets, or a memo of it), merge them bottom-up through call
// sites (formal → actual), then push the merged estimates back down so
// every procedure sees uniform extents. Propagation writes a copy of
// each local pass's map and no Offsets: a wider estimate replaces one.
func ComputeEstimates(g *acg.Graph, local func(*ast.Procedure) map[string]*Offsets) *Analysis {
	a := &Analysis{Estimates: map[string]map[string]*Offsets{}}
	// local phase
	for _, n := range g.TopoOrder() {
		a.Estimates[n.Name()] = maps.Clone(local(n.Proc))
	}
	// bottom-up merge: callee formals → caller actuals
	for _, n := range g.ReverseTopoOrder() {
		for _, site := range n.Callers {
			caller := a.Estimates[site.Caller.Name()]
			for name, offs := range a.Estimates[n.Name()] {
				if target := site.CallerName(name); target != "" {
					widen(caller, target, offs)
				}
			}
		}
	}
	// top-down distribution of the global estimates
	for _, n := range g.TopoOrder() {
		caller := a.Estimates[n.Name()]
		for _, site := range n.Calls {
			callee := a.Estimates[site.Callee.Name()]
			for _, b := range site.Bindings {
				// an actual without a name has no estimate
				offs, ok := caller[b.ActualName]
				if ok && (callee[b.Formal] != nil || isArrayFormal(site.Callee.Proc, b.Formal)) {
					widen(callee, b.Formal, offs)
				}
			}
			// commons share by name
			for name, offs := range caller {
				if sym := site.Callee.Proc.Symbols.Lookup(name); sym != nil && sym.Common != "" {
					widen(callee, name, offs)
				}
			}
		}
	}
	return a
}

// widen makes m[name] cover offs, replacing rather than writing an
// entry narrower than offs.
func widen(m map[string]*Offsets, name string, offs *Offsets) {
	if cur, ok := m[name]; !ok {
		m[name] = offs
	} else if !cur.Covers(offs) {
		m[name] = cur.Clone()
		m[name].Merge(offs)
	}
}

// LocalOffsets collects the constant offsets appearing in subscripts of
// each array of proc, whose index is ix (the local analysis phase).
func LocalOffsets(proc *ast.Procedure, ix *ast.Index) map[string]*Offsets {
	out := map[string]*Offsets{}
	env := proc.Constants()
	for _, ref := range ix.Refs {
		sym := proc.Symbols.Lookup(ref.Name)
		if sym == nil || sym.Kind != ast.SymArray {
			continue
		}
		offs, exists := out[ref.Name]
		if !exists {
			offs = NewOffsets(len(ref.Subs))
			out[ref.Name] = offs
		}
		for d, sub := range ref.Subs {
			if d >= len(offs.Lo) {
				break
			}
			v, a, c, ok := depend.LinearSubscript(sub, env)
			if !ok || v == "" || a != 1 {
				continue
			}
			if c > offs.Hi[d] {
				offs.Hi[d] = c
			}
			if -c > offs.Lo[d] {
				offs.Lo[d] = -c
			}
		}
	}
	return out
}

func isArrayFormal(proc *ast.Procedure, name string) bool {
	s := proc.Symbols.Lookup(name)
	return s != nil && s.IsFormal && s.Kind == ast.SymArray
}

// Extents reports the declared local extent of one dimension of a
// block-distributed array including its overlap region, e.g. blockSize
// 25 with offsets {-0,+5} gives [1:30] (the paper's REAL X(30)).
func (a *Analysis) Extents(proc, array string, dim, blockSize int) (lo, hi int) {
	offs := a.Estimates[proc][array]
	lo, hi = 1, blockSize
	if offs != nil && dim < len(offs.Lo) {
		lo -= offs.Lo[dim]
		hi += offs.Hi[dim]
	}
	return lo, hi
}

// used merges a procedure's uses per array, each sized like the
// array's estimate (or to its highest dimension when there is none).
func (a *Analysis) used(proc string, uses []Use) map[string]*Offsets {
	out := map[string]*Offsets{}
	for _, u := range uses {
		offs := out[u.Array]
		if offs == nil {
			rank := 1
			if est := a.Estimates[proc][u.Array]; est != nil {
				rank = len(est.Lo)
			}
			if u.Dim >= rank {
				rank = u.Dim + 1
			}
			offs = NewOffsets(rank)
			out[u.Array] = offs
		}
		if u.Dim < len(offs.Lo) {
			offs.Lo[u.Dim] = max(offs.Lo[u.Dim], u.Lo)
			offs.Hi[u.Dim] = max(offs.Hi[u.Dim], u.Hi)
		}
	}
	return out
}

// Explain emits the overlap decisions for one procedure as remarks:
// the per-array overlap widths (Gerndt's overlap regions, §5.6), how
// much of each the procedure's own shifts use, and any fallback to
// buffers when those shifts need more than the program-wide estimate.
func (a *Analysis) Explain(ex *explain.Collector, proc string, uses []Use) {
	if !ex.Enabled() {
		return
	}
	used := a.used(proc, uses)
	names := make([]string, 0, len(a.Estimates[proc]))
	for name := range a.Estimates[proc] {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		offs := a.Estimates[proc][name]
		if offs == nil || offs.Zero() {
			continue
		}
		msg := fmt.Sprintf("overlap region for %s extends the local section by %s", name, offs)
		if u := used[name]; u != nil && !u.Zero() {
			msg += fmt.Sprintf("; %s used by generated communication", u)
		}
		ex.Add(explain.Remark{
			Kind: explain.Note, Pass: "overlap", Proc: proc, Name: "overlap",
			Msg: msg,
		})
	}
	var bufNames []string
	for name, u := range used {
		if est := a.Estimates[proc][name]; est == nil || !est.Covers(u) {
			bufNames = append(bufNames, name)
		}
	}
	sort.Strings(bufNames)
	for _, name := range bufNames {
		ex.Add(explain.Remark{
			Kind: explain.Missed, Pass: "overlap", Proc: proc, Name: "overlap",
			Msg: fmt.Sprintf("actual overlap for %s exceeds the program-wide estimate %s: nonlocal data falls back to buffers",
				name, a.Estimates[proc][name]),
		})
	}
}
