package profile

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"fortd/internal/trace"
)

// sampleEvents builds a small deterministic traced run: two attributed
// sites, one unattributed, two processors.
func sampleEvents() []trace.Event {
	return []trace.Event{
		{Kind: trace.KindSend, Name: "send", Proc: "MAIN", Line: 3, PID: 0, Src: 0, Dst: 1, Words: 8, Start: 0, Dur: 10, Seq: 1},
		{Kind: trace.KindSend, Name: "send", Proc: "MAIN", Line: 3, PID: 0, Src: 0, Dst: 1, Words: 8, Start: 10, Dur: 10, Seq: 2},
		{Kind: trace.KindRecv, Name: "recv", Proc: "SUB", Line: 7, PID: 1, Src: 0, Dst: 1, Words: 8, Start: 0, Dur: 12, Seq: 1},
		{Kind: trace.KindSend, Name: "bcast", PID: 1, Src: 1, Dst: 0, Words: 2, Start: 20, Dur: 4, Seq: 2},
		{Kind: trace.KindProcSummary, PID: 0, Dur: 40, Flops: 30, Sent: 2},
		{Kind: trace.KindProcSummary, PID: 1, Dur: 44, Flops: 20, Sent: 1, Recvd: 2, Wait: 12},
	}
}

func sampleProfile(t *testing.T) *Profile {
	t.Helper()
	p := FromEvents(sampleEvents(), Meta{ProgramHash: "abc", Workload: "sample", P: 2, Backend: "des"})
	if p == nil {
		t.Fatal("FromEvents returned nil")
	}
	return p
}

func mustMarshal(t *testing.T, p *Profile) []byte {
	t.Helper()
	buf, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestFromEventsShape(t *testing.T) {
	p := sampleProfile(t)
	if p.Schema != SchemaVersion || p.Runs != 1 {
		t.Errorf("schema=%d runs=%d", p.Schema, p.Runs)
	}
	if p.Total.Msgs != 3 || p.Total.Words != 18 {
		t.Errorf("total = %+v", p.Total)
	}
	if len(p.Procs) != 2 || len(p.Histogram) == 0 {
		t.Errorf("procs=%d hist=%d", len(p.Procs), len(p.Histogram))
	}
	// three sites: MAIN:3 send, SUB:7 recv, (unattributed p1) bcast
	if len(p.Sites) != 3 {
		t.Fatalf("sites = %+v", p.Sites)
	}
	var un *trace.SiteRow
	for i := range p.Sites {
		if p.Sites[i].Proc == "" {
			un = &p.Sites[i]
		}
	}
	if un == nil || un.PID != 1 || un.Site() != "(unattributed p1)" {
		t.Errorf("unattributed row = %+v", un)
	}
	if bs := p.BlockedShare(); bs <= 0 || bs >= 1 {
		t.Errorf("blocked share = %v", bs)
	}
	if im := p.Imbalance(); im < 1 {
		t.Errorf("imbalance = %v", im)
	}
}

// TestMarshalDeterministic: equal inputs yield byte-identical
// artifacts with a stable content hash, and the bytes round-trip
// through Decode.
func TestMarshalDeterministic(t *testing.T) {
	a, b := sampleProfile(t), sampleProfile(t)
	ba, bb := mustMarshal(t, a), mustMarshal(t, b)
	if !bytes.Equal(ba, bb) {
		t.Fatalf("equal runs marshal differently:\n%s\n---\n%s", ba, bb)
	}
	ida, _ := a.ID()
	idb, _ := b.ID()
	if ida != idb || len(ida) != 64 {
		t.Errorf("ids %q vs %q", ida, idb)
	}
	back, err := Decode(ba)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustMarshal(t, back), ba) {
		t.Error("decode/marshal round trip changed bytes")
	}
}

func TestDecodeRejectsUnknownSchema(t *testing.T) {
	buf := bytes.Replace(mustMarshal(t, sampleProfile(t)),
		[]byte(`"schema": 1`), []byte(`"schema": 99`), 1)
	if _, err := Decode(buf); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("err = %v, want schema rejection", err)
	}
}

// TestDecodeRejectsRunsBelowOne: every per-run column divides by the
// run count, so an artifact claiming none (or fewer) is refused at the
// door, naming the field.
func TestDecodeRejectsRunsBelowOne(t *testing.T) {
	good := mustMarshal(t, sampleProfile(t))
	for _, runs := range []string{"0", "-3"} {
		buf := bytes.Replace(good, []byte(`"runs": 1`), []byte(`"runs": `+runs), 1)
		if _, err := Decode(buf); err == nil || !strings.Contains(err.Error(), `"runs" is `+runs) {
			t.Errorf("runs=%s: err = %v, want the run count rejected", runs, err)
		}
	}
}

// TestMergeIdentities pins the Merge algebra: empty inputs are the
// identity element and argument order never changes the bytes.
func TestMergeIdentities(t *testing.T) {
	p := sampleProfile(t)
	want := mustMarshal(t, p)

	if got := Merge(); got != nil {
		t.Errorf("Merge() = %+v, want nil", got)
	}
	empty := &Profile{Schema: SchemaVersion}
	for _, m := range []*Profile{Merge(p), Merge(p, nil), Merge(p, empty), Merge(empty, p, nil)} {
		if !bytes.Equal(mustMarshal(t, m), want) {
			t.Errorf("merge with identity changed bytes:\n%s", mustMarshal(t, m))
		}
	}

	// order independence across genuinely different profiles
	q := FromEvents(sampleEvents()[:4], Meta{ProgramHash: "abc", Workload: "sample", P: 2, Backend: "des"})
	r := FromEvents(sampleEvents()[2:], Meta{ProgramHash: "xyz", Workload: "other", P: 4, Backend: "goroutine"})
	ab := mustMarshal(t, Merge(p, q, r))
	ba := mustMarshal(t, Merge(r, p, q))
	if !bytes.Equal(ab, ba) {
		t.Fatalf("merge is order-dependent:\n%s\n---\n%s", ab, ba)
	}
}

func TestMergeWeightsAndMeta(t *testing.T) {
	p := sampleProfile(t)
	m := Merge(p, p, p)
	if m.Runs != 3 {
		t.Errorf("runs = %d", m.Runs)
	}
	if m.Total.Msgs != 3*p.Total.Msgs || m.Total.Blocked != 3*p.Total.Blocked {
		t.Errorf("totals did not triple: %+v", m.Total)
	}
	// intensive metrics are invariant under self-merge
	if m.BlockedShare() != p.BlockedShare() {
		t.Errorf("blocked share %v != %v", m.BlockedShare(), p.BlockedShare())
	}
	// CPShare is a weighted mean; self-merge is equal up to one ulp of
	// the (x+x+x)/3 fold
	if d := m.Sites[0].CPShare - p.Sites[0].CPShare; d > 1e-12 || d < -1e-12 {
		t.Errorf("cp share %v != %v", m.Sites[0].CPShare, p.Sites[0].CPShare)
	}
	if m.Meta != p.Meta {
		t.Errorf("agreeing meta was not kept: %+v", m.Meta)
	}

	other := sampleProfile(t)
	other.Meta = Meta{ProgramHash: "zzz", Workload: "w2", P: 8, Backend: "goroutine", FaultSeed: 7}
	mixed := Merge(p, other).Meta
	want := Meta{ProgramHash: "mixed", Workload: "mixed", P: 0, Backend: "mixed", FaultSeed: 0}
	if mixed != want {
		t.Errorf("mixed meta = %+v", mixed)
	}
}

// TestDiffFlagsInjectedRegression: inflating one site's blocked time by
// 20% trips the default 10% threshold at that site and nowhere else.
func TestDiffFlagsInjectedRegression(t *testing.T) {
	old := sampleProfile(t)
	new := sampleProfile(t)
	for i := range new.Sites {
		if new.Sites[i].Proc == "SUB" {
			new.Sites[i].Blocked *= 1.20
		}
	}
	new.Total.Blocked *= 1.20

	c := Diff(old, new, DefaultThresholds())
	if !c.Regressed() {
		t.Fatal("20% blocked regression not flagged")
	}
	regs := c.Regressions()
	if len(regs) != 1 || regs[0].Proc != "SUB" || regs[0].Line != 7 {
		t.Fatalf("regressions = %+v", regs)
	}
	var blocked *MetricDelta
	for i := range regs[0].Metrics {
		if regs[0].Metrics[i].Name == "blocked_us" {
			blocked = &regs[0].Metrics[i]
		}
	}
	if blocked == nil || blocked.Class != "regression" || blocked.Pct < 0.19 || blocked.Pct > 0.21 {
		t.Errorf("blocked delta = %+v", blocked)
	}
	if c.BlockedShare.Class != "regression" {
		t.Errorf("machine-wide blocked share = %+v", c.BlockedShare)
	}

	var buf bytes.Buffer
	if err := c.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "SUB:7") || !strings.Contains(buf.String(), "regression") {
		t.Errorf("rendered diff lacks the regression:\n%s", buf.String())
	}

	// identical profiles: clean
	if c := Diff(old, sampleProfile(t), DefaultThresholds()); c.Regressed() {
		t.Errorf("self-diff regressed: %+v", c.Regressions())
	}
}

// TestDiffTextIsPerRun: a site only one profile has is printed as that
// profile's per-run mean, like every other column of the table, not as
// the total over a merged profile's runs.
func TestDiffTextIsPerRun(t *testing.T) {
	one := sampleProfile(t)
	four := Merge(one, one, one, one)
	if four.Runs != 4 {
		t.Fatalf("merged runs = %d", four.Runs)
	}
	without := sampleProfile(t)
	var lost trace.SiteRow
	for i, s := range without.Sites {
		if s.Proc == "MAIN" {
			lost = s
			without.Sites = slices.Delete(without.Sites, i, i+1)
			break
		}
	}
	if lost.Msgs != 2 || lost.Cost() != 20 {
		t.Fatalf("MAIN:3 in one run = %+v, want 2 msgs costing 20µs", lost)
	}
	for _, tc := range []struct {
		old, new *Profile
		want     string
	}{
		{without, four, "new site: 2 msgs, 20.0µs cost/run"},
		{four, without, "site gone (was 2 msgs, 20.0µs cost/run)"},
	} {
		var buf bytes.Buffer
		if err := Diff(tc.old, tc.new, DefaultThresholds()).WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), tc.want) {
			t.Errorf("diff lacks %q:\n%s", tc.want, buf.String())
		}
	}
}

func TestDiffNewAndGoneSites(t *testing.T) {
	old := sampleProfile(t)
	new := sampleProfile(t)
	new.Sites = new.Sites[:len(new.Sites)-1]
	c := Diff(old, new, DefaultThresholds())
	if len(c.GoneSites) != 1 || len(c.NewSites) != 0 {
		t.Errorf("gone=%+v new=%+v", c.GoneSites, c.NewSites)
	}
	c = Diff(new, old, DefaultThresholds())
	if len(c.NewSites) != 1 || len(c.GoneSites) != 0 {
		t.Errorf("gone=%+v new=%+v", c.GoneSites, c.NewSites)
	}
}

// TestDirStore: content-addressed round trip, dedup, listing, and the
// restart story (a second store over the same directory serves the
// artifact).
func TestDirStore(t *testing.T) {
	dir := t.TempDir()
	st, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := sampleProfile(t)
	id, err := st.Put(p)
	if err != nil {
		t.Fatal(err)
	}
	if id2, _ := st.Put(p); id2 != id {
		t.Errorf("re-put id %q != %q", id2, id)
	}
	got, err := st.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustMarshal(t, got), mustMarshal(t, p)) {
		t.Error("stored profile round trip changed bytes")
	}
	if _, err := st.Get(strings.Repeat("0", 64)); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing id err = %v", err)
	}
	if _, err := st.Get("../escape"); !errors.Is(err, ErrNotFound) {
		t.Errorf("traversal id err = %v", err)
	}

	// corrupt and foreign files are invisible to List
	os.WriteFile(filepath.Join(dir, strings.Repeat("f", 64)+".json"), []byte("{"), 0644)
	os.WriteFile(filepath.Join(dir, "README.json"), []byte("{}"), 0644)
	// so is a well-formed artifact that claims no runs
	norun := strings.Repeat("e", 64)
	os.WriteFile(filepath.Join(dir, norun+".json"),
		bytes.Replace(mustMarshal(t, p), []byte(`"runs": 1`), []byte(`"runs": 0`), 1), 0644)
	if _, err := st.Get(norun); !errors.Is(err, ErrNotFound) {
		t.Errorf("zero-run artifact err = %v, want ErrNotFound", err)
	}

	// restart: a fresh store over the same directory still serves it
	st2, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.Get(id); err != nil {
		t.Errorf("restarted store lost the profile: %v", err)
	}
	list, err := st2.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != id || list[0].Meta.Workload != "sample" || list[0].Runs != 1 {
		t.Errorf("list = %+v", list)
	}
}

func TestMemStore(t *testing.T) {
	st := NewMemStore()
	p := sampleProfile(t)
	id, err := st.Put(p)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := st.Get(id); err != nil || got != p {
		t.Errorf("get = %v, %v", got, err)
	}
	if _, err := st.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing err = %v", err)
	}
	list, _ := st.List()
	if len(list) != 1 || list[0].ID != id {
		t.Errorf("list = %+v", list)
	}
}

// TestMemStoreBound: a MemStore keeps the MemStoreLimit profiles stored
// last; the first of MemStoreLimit+1 distinct ones answers ErrNotFound.
func TestMemStoreBound(t *testing.T) {
	st := NewMemStore()
	p := sampleProfile(t)
	var ids []string
	for i := 0; i <= MemStoreLimit; i++ {
		q := *p
		q.Meta.Workload = fmt.Sprintf("w%d", i)
		id, err := st.Put(&q)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if list, _ := st.List(); len(list) != MemStoreLimit {
		t.Errorf("%d profiles stored, want the bound %d", len(list), MemStoreLimit)
	}
	if _, err := st.Get(ids[0]); !errors.Is(err, ErrNotFound) {
		t.Errorf("oldest profile: err = %v, want ErrNotFound", err)
	}
	for _, id := range []string{ids[1], ids[MemStoreLimit]} {
		if _, err := st.Get(id); err != nil {
			t.Errorf("kept profile %s: %v", id, err)
		}
	}
}

func TestWritersSmoke(t *testing.T) {
	p := sampleProfile(t)
	var buf bytes.Buffer
	if err := p.WriteTop(&buf, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "blocked-share=") || !strings.Contains(out, "SUB:7") {
		t.Errorf("top output:\n%s", out)
	}
	// Top(2) drops the cheapest of the three sites
	if strings.Count(out, "\n") < 4 {
		t.Errorf("top output too short:\n%s", out)
	}

	src := "      PROGRAM MAIN\n      CALL SUB\n      X = 1\n"
	buf.Reset()
	if err := p.WriteAnnotated(&buf, src); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	if !strings.Contains(out, "!prof MAIN send") {
		t.Errorf("annotated output lacks the MAIN:3 site:\n%s", out)
	}
	if !strings.Contains(out, "!prof (unattributed p1) bcast") {
		t.Errorf("annotated output lacks the header block:\n%s", out)
	}
}

// TestZeroDurationShares pins the degenerate-run contract: a run whose
// processors never advance their clocks (zero duration, zero blocking)
// must report blocked share 0 and imbalance 0 — never NaN or Inf from
// the 0/0 ratios — and the serialized artifact must stay finite, so
// downstream share-based gates (fdprof diff, bench snapshots) compare
// cleanly against it.
func TestZeroDurationShares(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.KindProcSummary, PID: 0, Dur: 0},
		{Kind: trace.KindProcSummary, PID: 1, Dur: 0},
	}
	p := FromEvents(events, Meta{ProgramHash: "zero", Workload: "idle", P: 2, Backend: "des"})
	if p == nil {
		t.Fatal("FromEvents returned nil for a summarized zero-duration run")
	}
	if bs := p.BlockedShare(); bs != 0 {
		t.Errorf("blocked share = %v, want exactly 0", bs)
	}
	if im := p.Imbalance(); im != 0 {
		t.Errorf("imbalance = %v, want exactly 0", im)
	}
	buf := mustMarshal(t, p)
	for _, bad := range []string{"NaN", "Inf"} {
		if bytes.Contains(buf, []byte(bad)) {
			t.Errorf("artifact contains %q:\n%s", bad, buf)
		}
	}
	// a diff against itself classifies nothing and stays finite
	c := Diff(p, p, DefaultThresholds())
	if c.BlockedShare.Pct != 0 || c.BlockedShare.Class != "" {
		t.Errorf("self-diff blocked share = %+v", c.BlockedShare)
	}

	// nil and empty profiles answer 0 as well
	var nilP *Profile
	if nilP.BlockedShare() != 0 || nilP.Imbalance() != 0 {
		t.Error("nil profile shares not 0")
	}
}

// TestDirStoreDrills: what a crash, a foreign writer or a vanished
// directory can leave under a store reads as a missing artifact — Get
// is ErrNotFound, List skips it, Put reports its error — and nothing
// panics. chmod is not among the drills: it is a no-op for root.
func TestDirStoreDrills(t *testing.T) {
	for _, tc := range []struct {
		name string
		// damage is applied to the store's directory after NewDirStore
		// and one Put; file is the stored artifact's path
		damage func(t *testing.T, dir, file string)
		// fails: storing the artifact again fails (the directory takes
		// no write); otherwise the write is redone and Get serves it
		fails bool
	}{
		{"truncated entry", func(t *testing.T, dir, file string) {
			if err := os.Truncate(file, 40); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"wrong schema", func(t *testing.T, dir, file string) {
			buf, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			old := bytes.Replace(buf, []byte(`"schema": 1`), []byte(`"schema": 2`), 1)
			if bytes.Equal(old, buf) {
				t.Fatal("artifact does not record schema 1")
			}
			if err := os.WriteFile(file, old, 0o644); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"write killed before its rename", func(t *testing.T, dir, file string) {
			// what Put leaves when it dies between temp and rename
			tmp := filepath.Join(dir, "."+strings.TrimSuffix(filepath.Base(file), ".json")+".tmp123")
			if err := os.Rename(file, tmp); err != nil {
				t.Fatal(err)
			}
		}, false},
		{"directory replaced by a file", func(t *testing.T, dir, file string) {
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
				t.Fatal(err)
			}
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "profiles")
			st, err := NewDirStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			p := sampleProfile(t)
			id, err := st.Put(p)
			if err != nil {
				t.Fatal(err)
			}
			tc.damage(t, dir, st.path(id))

			if got, err := st.Get(id); !errors.Is(err, ErrNotFound) {
				t.Errorf("Get = %v, %v; want ErrNotFound", got, err)
			}
			if list, err := st.List(); err != nil || len(list) != 0 {
				t.Errorf("List = %+v, %v; want no entries and no error", list, err)
			}
			id2, err := st.Put(p)
			if (err != nil) != tc.fails || (err == nil && id2 != id) {
				t.Fatalf("Put after the damage = %q, %v", id2, err)
			}
			if _, err := st.Get(id); !tc.fails && err != nil {
				t.Errorf("Get after the write was redone: %v", err)
			}
		})
	}
}
