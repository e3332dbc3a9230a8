package profile

import (
	"bytes"
	"sort"

	"fortd/internal/trace"
)

// Merge folds profiles into one aggregate, weighted by each input's
// Runs count. Extensive quantities (times, message and word counts,
// histogram buckets) add; CPShare, the one intensive site metric,
// folds as a runs-weighted mean. Metadata fields that agree are kept;
// a disagreement collapses the field to "mixed" (strings) or 0
// (numbers), so a merge across seeds or a P-sweep is honest about what
// it aggregates.
//
// Merge satisfies two algebraic identities the tests pin:
//
//   - Identity element: nil profiles and profiles with Runs == 0
//     contribute nothing; merging a profile with an empty one returns
//     a profile equal to the original.
//   - Order independence: inputs are folded in canonical-byte order,
//     not argument order, so Merge(a, b) and Merge(b, a) produce
//     byte-identical artifacts despite float addition being
//     non-associative bitwise.
//
// Returns nil when no input carries any runs.
func Merge(profiles ...*Profile) *Profile {
	var live []*Profile
	for _, p := range profiles {
		if p != nil && p.Runs > 0 {
			live = append(live, p)
		}
	}
	if len(live) == 0 {
		return nil
	}
	// canonical fold order: sort inputs by their artifact bytes
	keys := make([][]byte, len(live))
	for i, p := range live {
		buf, err := p.Marshal()
		if err != nil {
			// a profile that cannot marshal cannot be stored either;
			// fall back to empty key rather than fail the fold
			buf = nil
		}
		keys[i] = buf
	}
	order := make([]int, len(live))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return bytes.Compare(keys[order[i]], keys[order[j]]) < 0
	})

	out := &Profile{Schema: SchemaVersion}
	procs := map[int]*trace.ProcRow{}
	sites := map[trace.SiteKey]*trace.SiteRow{}
	hist := map[int]*trace.Bucket{}
	for n, idx := range order {
		p := live[idx]
		if n == 0 {
			out.Meta = p.Meta
		} else {
			out.Meta = mergeMeta(out.Meta, p.Meta)
		}
		out.Total.Time += p.Total.Time
		out.Total.Msgs += p.Total.Msgs
		out.Total.Words += p.Total.Words
		out.Total.Clock += p.Total.Clock
		out.Total.Compute += p.Total.Compute
		out.Total.Send += p.Total.Send
		out.Total.Blocked += p.Total.Blocked
		out.Total.CriticalPath += p.Total.CriticalPath
		for _, pr := range p.Procs {
			row := procs[pr.PID]
			if row == nil {
				row = &trace.ProcRow{PID: pr.PID}
				procs[pr.PID] = row
			}
			row.Clock += pr.Clock
			row.Compute += pr.Compute
			row.Send += pr.Send
			row.Blocked += pr.Blocked
		}
		for _, s := range p.Sites {
			row := sites[s.SiteKey]
			if row == nil {
				row = &trace.SiteRow{SiteKey: s.SiteKey}
				sites[s.SiteKey] = row
			}
			row.Msgs += s.Msgs
			row.Words += s.Words
			row.Send += s.Send
			row.Blocked += s.Blocked
			// CPShare is intensive: accumulate runs-weighted sum here,
			// divide by total runs below
			row.CPShare += s.CPShare * float64(p.Runs)
		}
		for _, b := range p.Histogram {
			bk := hist[b.Hi]
			if bk == nil {
				bk = &trace.Bucket{Lo: b.Lo, Hi: b.Hi}
				hist[b.Hi] = bk
			}
			bk.Msgs += b.Msgs
			bk.Words += b.Words
		}
		out.Runs += p.Runs
	}
	for _, pr := range procs {
		out.Procs = append(out.Procs, *pr)
	}
	for _, s := range sites {
		s.CPShare /= float64(out.Runs)
		out.Sites = append(out.Sites, *s)
	}
	for _, b := range hist {
		out.Histogram = append(out.Histogram, *b)
	}
	out.normalize()
	return out
}

// mergeMeta keeps fields the two metas agree on and neutralizes the
// rest ("mixed" / 0).
func mergeMeta(a, b Meta) Meta {
	m := a
	if a.ProgramHash != b.ProgramHash {
		m.ProgramHash = "mixed"
	}
	if a.Workload != b.Workload {
		m.Workload = "mixed"
	}
	if a.P != b.P {
		m.P = 0
	}
	if a.Backend != b.Backend {
		m.Backend = "mixed"
	}
	if a.FaultSeed != b.FaultSeed {
		m.FaultSeed = 0
	}
	return m
}
