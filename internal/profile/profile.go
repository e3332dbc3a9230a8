// Package profile turns a run's transient trace analytics into a
// durable, versioned artifact: the measured truth the interprocedural
// compiler's static estimates (§6–§8) can be checked against, and the
// substrate for profile-guided optimization. A Profile distills a
// traced simulated run into per-site communication rows keyed by
// (procedure, line, operation), a per-processor utilization breakdown,
// a message-size histogram, and metadata identifying what was run
// (program content hash, workload, P, engine, fault seed).
//
// Profiles obey three contracts:
//
//   - Determinism: serialization is canonical — equal runs produce
//     byte-identical artifacts, so profiles can be diffed with plain
//     tools and deduplicated by content hash.
//   - Algebra: Merge folds any number of profiles into one, weighted
//     by run count, independent of argument order; merging with an
//     empty profile is the identity.
//   - Comparability: Diff classifies per-site, per-metric deltas
//     between two profiles against relative thresholds, so a measured
//     regression is a first-class, machine-checkable object.
//
// Store persists profiles under their content hash with the same
// atomic temp+rename discipline as the summary cache's disk tier;
// fortd.Service serves a store over HTTP and cmd/fdprof manipulates
// the files directly.
package profile

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"fortd/internal/trace"
	"fortd/internal/trace/analyze"
)

// SchemaVersion is the artifact schema this package reads and writes.
// Files carrying any other version are rejected by Decode, never
// misread.
const SchemaVersion = 1

// Meta identifies what a profile measured. Fields that disagree
// between merged profiles collapse to "mixed" (strings) or 0
// (numbers); see Merge.
type Meta struct {
	// ProgramHash is the compiled program's content hash
	// (fortd.ProgramID): profiles of the same hash measured the same
	// generated code.
	ProgramHash string `json:"program_hash"`
	// Workload is the collector's label for the run (a source file
	// name, a benchmark workload name; may be empty).
	Workload string `json:"workload"`
	// P is the simulated processor count.
	P int `json:"p"`
	// Backend names the machine engine that executed the run. There is
	// one, "des"; the field stays because dropping it would change the
	// bytes and content ids of schema-v1 artifacts.
	Backend string `json:"backend"`
	// FaultSeed is the fault-injection seed (0: no fault plan).
	FaultSeed int64 `json:"fault_seed"`
}

// Totals holds the run aggregates. All float and count fields are
// EXTENSIVE: they are sums over the profile's Runs, so Merge can fold
// profiles by plain addition and per-run means are value/Runs.
type Totals struct {
	// Time is the parallel time (max processor clock) summed over runs.
	Time float64 `json:"time_us"`
	// Msgs and Words are the communication totals over all runs.
	Msgs  int64 `json:"msgs"`
	Words int64 `json:"words"`
	// Clock, Compute, Send and Blocked sum the per-processor breakdown
	// machine-wide over all runs (Clock = Compute + Send + Blocked).
	Clock   float64 `json:"clock_us"`
	Compute float64 `json:"compute_us"`
	Send    float64 `json:"send_us"`
	Blocked float64 `json:"blocked_us"`
	// CriticalPath is the longest-dependence-chain estimate summed over
	// runs.
	CriticalPath float64 `json:"critical_path_us"`
}

// ProcRow is one processor's time breakdown, summed over runs.
type ProcRow struct {
	PID     int     `json:"pid"`
	Clock   float64 `json:"clock_us"`
	Compute float64 `json:"compute_us"`
	Send    float64 `json:"send_us"`
	Blocked float64 `json:"blocked_us"`
}

// SiteRow is one communication site's cost, summed over runs. The key
// is (Proc, Line, PID, Op): PID is -1 for attributed sites and the
// observing processor for unattributed ones, mirroring
// analyze.Hotspot, so distinct unattributed sites never collapse.
type SiteRow struct {
	Proc string `json:"proc"`
	Line int    `json:"line"`
	PID  int    `json:"pid"`
	Op   string `json:"op"`
	// Msgs counts messages, Words the payload total.
	Msgs  int64 `json:"msgs"`
	Words int64 `json:"words"`
	// Send is sender-side injection time, Blocked receiver-side stall
	// time, both in µs summed over runs.
	Send    float64 `json:"send_us"`
	Blocked float64 `json:"blocked_us"`
	// CPShare is the runs-weighted mean of the site's critical-path
	// share (the worst single processor's cost over the critical path).
	CPShare float64 `json:"cp_share"`
}

// Site renders the row's site label, matching analyze.Hotspot.Site.
func (s SiteRow) Site() string {
	if s.Proc == "" {
		if s.PID >= 0 {
			return fmt.Sprintf("(unattributed p%d)", s.PID)
		}
		return "(unattributed)"
	}
	if s.Line == 0 {
		return s.Proc
	}
	return fmt.Sprintf("%s:%d", s.Proc, s.Line)
}

// Cost is the site's total communication time in µs (summed over runs).
func (s SiteRow) Cost() float64 { return s.Send + s.Blocked }

// Bucket is one message-size histogram class: messages of [Lo, Hi]
// payload words, counts summed over runs.
type Bucket struct {
	Lo    int   `json:"lo"`
	Hi    int   `json:"hi"`
	Msgs  int64 `json:"msgs"`
	Words int64 `json:"words"`
}

// Profile is the versioned run-profile artifact. Field order is the
// canonical JSON key order; do not reorder fields without bumping
// SchemaVersion.
type Profile struct {
	Schema int  `json:"schema"`
	Meta   Meta `json:"meta"`
	// Runs is the merge weight: how many runs this profile aggregates.
	Runs  int    `json:"runs"`
	Total Totals `json:"total"`
	// Procs is sorted by PID; Sites by (Proc, Line, PID, Op); Histogram
	// by Lo. Canonical order is key order, not rank — use Top for a
	// cost-ranked view.
	Procs     []ProcRow `json:"procs"`
	Sites     []SiteRow `json:"sites"`
	Histogram []Bucket  `json:"histogram"`
}

// FromEvents distills a profile from a traced run's event stream. It
// returns nil when the events carry no simulator activity (e.g. a
// compile-only trace), mirroring analyze.Analyze.
func FromEvents(events []trace.Event, meta Meta) *Profile {
	return FromAnalysis(analyze.Analyze(events), meta)
}

// FromAnalysis distills a profile from an already-computed analysis.
// Returns nil for a nil analysis.
func FromAnalysis(a *analyze.Analysis, meta Meta) *Profile {
	if a == nil {
		return nil
	}
	p := &Profile{Schema: SchemaVersion, Meta: meta, Runs: 1}
	p.Total.Time = a.Time
	p.Total.Msgs = a.Msgs
	p.Total.Words = a.Words
	if a.Profile != nil {
		p.Total.CriticalPath = a.Profile.CriticalPath
		for _, pp := range a.Profile.Procs {
			p.Procs = append(p.Procs, ProcRow{
				PID: pp.PID, Clock: pp.Clock, Compute: pp.Compute,
				Send: pp.Send, Blocked: pp.Blocked,
			})
			p.Total.Clock += pp.Clock
			p.Total.Compute += pp.Compute
			p.Total.Send += pp.Send
			p.Total.Blocked += pp.Blocked
		}
	}
	for _, h := range a.Hotspots {
		p.Sites = append(p.Sites, SiteRow{
			Proc: h.Proc, Line: h.Line, PID: h.PID, Op: h.Op,
			Msgs: h.Msgs, Words: h.Words,
			Send: h.SendTime, Blocked: h.BlockedTime, CPShare: h.CPShare,
		})
	}
	for _, b := range a.Histogram {
		p.Histogram = append(p.Histogram, Bucket{Lo: b.Lo, Hi: b.Hi, Msgs: b.Msgs, Words: b.Words})
	}
	p.normalize()
	return p
}

// normalize sorts the row slices into canonical key order.
func (p *Profile) normalize() {
	sort.Slice(p.Procs, func(i, j int) bool { return p.Procs[i].PID < p.Procs[j].PID })
	sort.Slice(p.Sites, func(i, j int) bool { return siteKeyOf(p.Sites[i]).less(siteKeyOf(p.Sites[j])) })
	sort.Slice(p.Histogram, func(i, j int) bool { return p.Histogram[i].Lo < p.Histogram[j].Lo })
}

// siteKey identifies one site row under merging and diffing.
type siteKey struct {
	proc string
	line int
	pid  int
	op   string
}

func siteKeyOf(s SiteRow) siteKey { return siteKey{s.Proc, s.Line, s.PID, s.Op} }

func (k siteKey) less(o siteKey) bool {
	if k.proc != o.proc {
		return k.proc < o.proc
	}
	if k.line != o.line {
		return k.line < o.line
	}
	if k.pid != o.pid {
		return k.pid < o.pid
	}
	return k.op < o.op
}

func (k siteKey) String() string {
	return SiteRow{Proc: k.proc, Line: k.line, PID: k.pid, Op: k.op}.Site() + " " + k.op
}

// BlockedShare is the blocked fraction of total processor time over
// all runs (0 when no per-processor data was collected).
func (p *Profile) BlockedShare() float64 {
	if p == nil || p.Total.Clock <= 0 {
		return 0
	}
	return p.Total.Blocked / p.Total.Clock
}

// Imbalance is the max-over-mean busy-time ratio across processors
// (1.0 = perfectly balanced; 0 without per-processor data). Busy time
// is clock minus blocked. It is derived from the per-proc sums, so it
// stays meaningful after merging.
func (p *Profile) Imbalance() float64 {
	if p == nil || len(p.Procs) == 0 {
		return 0
	}
	var sum, max float64
	for _, pr := range p.Procs {
		busy := pr.Clock - pr.Blocked
		sum += busy
		if busy > max {
			max = busy
		}
	}
	if mean := sum / float64(len(p.Procs)); mean > 0 {
		return max / mean
	}
	return 0
}

// Top returns the n highest-cost sites (all of them when n <= 0),
// ranked by descending cost with the same tiebreak as the analyze
// hotspot table.
func (p *Profile) Top(n int) []SiteRow {
	out := append([]SiteRow(nil), p.Sites...)
	sort.Slice(out, func(i, j int) bool {
		x, y := out[i], out[j]
		if x.Cost() != y.Cost() {
			return x.Cost() > y.Cost()
		}
		if x.Words != y.Words {
			return x.Words > y.Words
		}
		if x.Site() != y.Site() {
			return x.Site() < y.Site()
		}
		return x.Op < y.Op
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Marshal renders the canonical artifact bytes: indented JSON with a
// fixed key order and no HTML escaping, terminated by one newline.
// Equal profiles marshal to equal bytes — the determinism contract the
// store's content addressing and the golden tests rely on.
func (p *Profile) Marshal() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(p); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ID returns the profile's content hash: the sha256 of its canonical
// bytes, in hex. Equal runs therefore share one id, and a store
// deduplicates them for free.
func (p *Profile) ID() (string, error) {
	buf, err := p.Marshal()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:]), nil
}

// Encode writes the canonical bytes to w.
func (p *Profile) Encode(w io.Writer) error {
	buf, err := p.Marshal()
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// Decode parses an artifact, rejecting unknown schema versions.
func Decode(data []byte) (*Profile, error) {
	var p Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	if p.Schema != SchemaVersion {
		return nil, fmt.Errorf("profile: unsupported schema version %d (want %d)", p.Schema, SchemaVersion)
	}
	p.normalize()
	return &p, nil
}

// Load reads and decodes the artifact file at path.
func Load(path string) (*Profile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// WriteFile writes the canonical artifact bytes to path.
func WriteFile(path string, p *Profile) error {
	buf, err := p.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0644)
}
