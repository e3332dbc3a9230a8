package core

// Summary-cache integration: content-hashed keys for per-procedure
// phase-3 artifacts. A procedure's key covers its own (post-cloning)
// source text and statement positions, the compilation options that
// influence code generation, and every interprocedural input its
// compilation consumes — propagated constants, reaching decompositions,
// run-time-resolution flags, and one summary hash per distinct callee.
// The callee summary hash covers the callee's caller-visible interface
// (interfaceString: delayed iteration sets, delayed communication,
// decomposition summary, the scalar formals and COMMON scalars it may
// write and read), its regular-section side-effect summary and its
// overlap estimates. Key equality is therefore §8's recompilation test
// — nothing this procedure's compilation read has changed — and it is
// the only one: editing one procedure re-analyzes the cone of callers
// whose consumed summaries actually changed, and Compilation.CacheMisses
// is the recompile set.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"fortd/internal/acg"
	"fortd/internal/comm"
	"fortd/internal/overlap"
	"fortd/internal/partition"
	"fortd/internal/reach"
	"fortd/internal/summarycache"
)

// procKey builds the content-hash cache key for one procedure. Every
// callee's task completed before this one started (the scheduler's
// dependency edges), so its summary hash is there to read.
func (pc *passCtx) procKey(n *acg.Node) string {
	name := n.Name()
	h := summarycache.NewHasher()

	h.Add("unit", pc.cache.UnitDigest(n.Proc))
	h.Add("p", strconv.Itoa(pc.p),
		"strategy", strconv.Itoa(int(pc.opts.Strategy)),
		"remap", strconv.Itoa(int(pc.opts.RemapOpt)),
		"clonelimit", strconv.Itoa(pc.opts.CloneLimit),
		"explain", strconv.FormatBool(pc.exOn))

	h.Add("env", renderMap(pc.consts[name], func(k string, v int) string { return k + "=" + strconv.Itoa(v) }))
	h.Add("reach", renderMap(pc.c.Reach.Reaching[name], func(k string, v reach.DSet) string { return k + "=" + v.Key() }))
	rt := append([]string(nil), pc.c.Reach.RuntimeResolution[name]...)
	sort.Strings(rt)
	h.Add("rtres", strings.Join(rt, ","))

	for _, callee := range calleeNames(n) {
		h.Add("callee", callee, pc.callee(callee).shash)
	}
	return h.Sum()
}

// summaryHash fingerprints everything a caller consumes from a
// completed procedure: its interface summaries plus the fresh global
// analyses (regular sections, overlap estimates) derived from it.
func (pc *passCtx) summaryHash(out *procOut) string {
	h := summarycache.NewHasher()
	h.Add("iface", out.iface)
	if l := pc.locals[out.Proc]; l.Sections != nil {
		h.Add("sections", l.SectionsKey) // rendered once per unit
	} else {
		h.Add("sections", pc.sections[out.Proc].Key())
	}
	h.Add("overlap", renderMap(pc.c.Overlaps.Estimates[out.Proc], func(k string, v *overlap.Offsets) string { return k + v.String() }))
	h.Add("runtime", strconv.FormatBool(out.Runtime))
	return h.Sum()
}

// storeEntries records every freshly compiled procedure of a successful
// compilation: the task's own entry, whose unit is the one in the
// generated program (nothing writes a published unit, so the two may
// share it).
func (pc *passCtx) storeEntries(outs []*procOut) {
	for _, out := range outs {
		if out != nil && !out.hit && out.err == nil {
			pc.cache.Put(out.Entry)
		}
	}
}

// renderMap joins part(k, v) of every entry of m, sorted, with ";".
func renderMap[V any](m map[string]V, part func(k string, v V) string) string {
	parts := make([]string, 0, len(m))
	for k, v := range m {
		parts = append(parts, part(k, v))
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}

func renderPartDelayed(m map[string]*partition.Constraint) []string {
	parts := make([]string, 0, len(m))
	for k, c := range m {
		// Constraint.Key omits the bound array sizes; include them so a
		// resized callee array invalidates callers
		parts = append(parts, fmt.Sprintf("iter %s %s/%v", k, c.Key(), c.Dist.Sizes))
	}
	return parts
}

func renderDelayedComm(ds []*comm.Delayed) []string {
	parts := make([]string, 0, len(ds))
	for _, d := range ds {
		// every field, so any change to a delayed communication
		// invalidates the callers that instantiate it
		parts = append(parts, fmt.Sprintf("comm %s|%d|%d|%s|%d|%s|%d|%s",
			d.Array, int(d.Kind), d.Shift, d.PointVar, d.PointOff, d.Layout.Key(), d.DistDim, d.Section))
	}
	return parts
}
