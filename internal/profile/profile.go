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

// Profile is the versioned run-profile artifact: an envelope around the
// rows trace.Distill fills. Field order is the canonical JSON key order;
// do not reorder fields (here or in the trace row types) without
// bumping SchemaVersion.
//
// All float and count fields are EXTENSIVE: they are sums over the
// profile's Runs, so Merge can fold profiles by plain addition and
// per-run means are value/Runs. The one exception is SiteRow.CPShare,
// a runs-weighted mean.
type Profile struct {
	Schema int  `json:"schema"`
	Meta   Meta `json:"meta"`
	// Runs is the merge weight: how many runs this profile aggregates.
	Runs  int          `json:"runs"`
	Total trace.Totals `json:"total"`
	// Procs is sorted by PID; Sites by (Proc, Line, PID, Op); Histogram
	// by Lo. Canonical order is key order, not rank — trace.ByCost is
	// the cost-ranked view.
	Procs     []trace.ProcRow `json:"procs"`
	Sites     []trace.SiteRow `json:"sites"`
	Histogram []trace.Bucket  `json:"histogram"`
}

// FromEvents distills a profile from a traced run's event stream, which
// it reorders into canonical order (trace.Distill). It returns nil when
// the events carry no simulator activity (e.g. a compile-only trace).
func FromEvents(events []trace.Event, meta Meta) *Profile {
	return FromRun(trace.Distill(events), meta)
}

// FromRun wraps an already distilled run, whose rows it shares. Returns
// nil for a run with no simulator activity.
func FromRun(r *trace.Run, meta Meta) *Profile {
	if r.P == 0 {
		return nil
	}
	return &Profile{Schema: SchemaVersion, Meta: meta, Runs: 1,
		Total: r.Total, Procs: r.Procs, Sites: r.Sites, Histogram: r.Histogram}
}

// normalize sorts the row slices into canonical key order.
func (p *Profile) normalize() {
	sort.Slice(p.Procs, func(i, j int) bool { return p.Procs[i].PID < p.Procs[j].PID })
	sort.Slice(p.Sites, func(i, j int) bool { return p.Sites[i].Less(p.Sites[j].SiteKey) })
	sort.Slice(p.Histogram, func(i, j int) bool { return p.Histogram[i].Lo < p.Histogram[j].Lo })
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
// (trace.Imbalance). It is derived from the per-proc sums, so it stays
// meaningful after merging.
func (p *Profile) Imbalance() float64 {
	if p == nil {
		return 0
	}
	return trace.Imbalance(p.Procs)
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
	return ContentID(buf), nil
}

// ContentID hashes canonical artifact bytes (Marshal's) into the id, for
// a caller that already holds them.
func ContentID(canonical []byte) string {
	sum := sha256.Sum256(canonical)
	return hex.EncodeToString(sum[:])
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

// Decode parses an artifact, rejecting unknown schema versions and a
// run count below one: every per-run figure divides by it.
func Decode(data []byte) (*Profile, error) {
	var p Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	if p.Schema != SchemaVersion {
		return nil, fmt.Errorf("profile: unsupported schema version %d (want %d)", p.Schema, SchemaVersion)
	}
	if p.Runs < 1 {
		return nil, fmt.Errorf("profile: \"runs\" is %d (want at least 1)", p.Runs)
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

// WriteFile writes the canonical artifact bytes to path and returns
// their content id.
func WriteFile(path string, p *Profile) (id string, err error) {
	buf, err := p.Marshal()
	if err != nil {
		return "", err
	}
	return ContentID(buf), os.WriteFile(path, buf, 0644)
}
