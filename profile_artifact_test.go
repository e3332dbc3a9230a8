package fortd

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fortd/internal/profile"
)

// seededJacobiProfile compiles the 16×16 Jacobi workload, runs it under
// a seeded fault plan, and distills the trace into the profile
// artifact.
func seededJacobiProfile(t *testing.T) *profile.Profile {
	t.Helper()
	src := Jacobi2DSrc(16, 3, 4)
	prog, err := Compile(src, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrace()
	fp := &FaultPlan{Seed: 7, DelayProb: 0.25, DelayMax: 8}
	_, err = NewRunner(
		WithInit(map[string][]float64{"a": Ramp(16 * 16)}),
		WithTrace(tr), WithFaults(fp),
	).Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	pf := profile.FromEvents(tr.Events(), profile.Meta{
		ProgramHash: ProgramID(src, DefaultOptions()),
		Workload:    "jacobi",
		P:           prog.P(),
		Backend:     "des",
		FaultSeed:   fp.Seed,
	})
	if pf == nil {
		t.Fatal("traced run produced no profile")
	}
	return pf
}

// TestProfileByteIdenticalAcrossRuns pins the artifact's determinism
// contract: equal seeded runs serialize to byte-identical profiles with
// one content id.
func TestProfileByteIdenticalAcrossRuns(t *testing.T) {
	first, again := seededJacobiProfile(t), seededJacobiProfile(t)
	a, err := first.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b, err := again.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("two equal seeded runs serialized differently:\n--- first ---\n%s\n--- again ---\n%s", a, b)
	}
	ida, err := first.ID()
	if err != nil {
		t.Fatal(err)
	}
	idb, err := again.ID()
	if err != nil {
		t.Fatal(err)
	}
	if ida != idb {
		t.Errorf("content ids differ across runs: %s vs %s", ida, idb)
	}
}

// TestGoldenProfileJacobi pins the canonical serialization itself:
// schema v1 field names, key order, metric values and the content
// hash, via the committed golden artifact.
func TestGoldenProfileJacobi(t *testing.T) {
	src := Jacobi2DSrc(16, 3, 4)
	prog, err := Compile(src, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrace()
	if _, err := NewRunner(WithInit(map[string][]float64{"a": Ramp(16 * 16)}), WithTrace(tr)).Run(prog); err != nil {
		t.Fatal(err)
	}
	pf := profile.FromEvents(tr.Events(), profile.Meta{
		ProgramHash: ProgramID(src, DefaultOptions()),
		Workload:    "jacobi",
		P:           prog.P(),
		Backend:     "des",
	})
	if pf == nil {
		t.Fatal("traced run produced no profile")
	}
	data, err := pf.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden", "jacobi_profile.golden")
	if *update {
		if err := os.WriteFile(path, data, 0644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestGoldenProfile -update` to create)", err)
	}
	if !bytes.Equal(data, want) {
		t.Errorf("profile differs from %s: %s", path, firstDiff(data, want))
	}
}

// TestServiceProfileStorePersistence drives the daemon-facing path: a
// profiled run stores the artifact under ProfileDir, a second Service
// sharing the directory (a daemon restart) serves it byte-identically,
// and unknown ids surface the typed error.
func TestServiceProfileStorePersistence(t *testing.T) {
	dir := t.TempDir()
	src := Jacobi2DSrc(16, 3, 4)
	init := map[string][]float64{"a": Ramp(16 * 16)}
	ctx := context.Background()

	svc := newTestService(t, ServiceConfig{ProfileDir: dir})
	out, err := svc.Run(ctx, RunRequest{Session: "s", Source: src, Init: init, Profile: true, Workload: "jacobi"})
	if err != nil {
		t.Fatal(err)
	}
	if out.ProfileID == "" {
		t.Fatal("profiled run returned no profile id")
	}
	plain, err := svc.Run(ctx, RunRequest{Session: "s", Source: src, Init: init})
	if err != nil {
		t.Fatal(err)
	}
	if plain.ProfileID != "" {
		t.Errorf("unprofiled run returned profile id %q", plain.ProfileID)
	}
	p1, err := svc.Profile(out.ProfileID)
	if err != nil {
		t.Fatal(err)
	}

	// restart: a fresh Service over the same directory still serves it
	svc2 := newTestService(t, ServiceConfig{ProfileDir: dir})
	p2, err := svc2.Profile(out.ProfileID)
	if err != nil {
		t.Fatalf("restarted service lost the profile: %v", err)
	}
	b1, _ := p1.Marshal()
	b2, _ := p2.Marshal()
	if !bytes.Equal(b1, b2) {
		t.Error("stored profile changed across restart")
	}
	entries, err := svc2.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range entries {
		if e.ID == out.ProfileID {
			found = true
			if e.Meta.Workload != "jacobi" || e.Meta.P != 4 {
				t.Errorf("entry meta = %+v", e.Meta)
			}
		}
	}
	if !found {
		t.Errorf("Profiles() after restart lacks %s: %+v", out.ProfileID, entries)
	}
	if _, err := svc2.Profile(strings.Repeat("0", 64)); !errors.Is(err, ErrUnknownProfile) {
		t.Errorf("unknown profile err = %v, want ErrUnknownProfile", err)
	}
}

// TestServiceProfileMemStore: without ProfileDir the store is
// in-memory — profiled runs still work, they just don't survive the
// process.
func TestServiceProfileMemStore(t *testing.T) {
	svc := newTestService(t, ServiceConfig{})
	out, err := svc.Run(context.Background(), RunRequest{
		Source:  Jacobi2DSrc(16, 3, 4),
		Init:    map[string][]float64{"a": Ramp(16 * 16)},
		Profile: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.ProfileID == "" {
		t.Fatal("profiled run returned no profile id")
	}
	p, err := svc.Profile(out.ProfileID)
	if err != nil {
		t.Fatal(err)
	}
	if id, _ := p.ID(); id != out.ProfileID {
		t.Errorf("stored profile id %s != reported %s", id, out.ProfileID)
	}
	if p.BlockedShare() < 0 || p.BlockedShare() > 1 {
		t.Errorf("blocked share %v out of [0,1]", p.BlockedShare())
	}
}

// TestProfileDeterministicAcrossServiceAndLibrary: the artifact the
// service stores for a program equals the one a direct library run
// distills, modulo the meta the service fills in — same distillation,
// one definition.
func TestProfileDeterministicAcrossServiceAndLibrary(t *testing.T) {
	src := Jacobi2DSrc(16, 3, 4)
	init := map[string][]float64{"a": Ramp(16 * 16)}
	// The service default mirrors fdd's: overlap inherited by requests
	// that don't ask, so the direct DefaultOptions compile below sees
	// the same generated code.
	svc := newTestService(t, ServiceConfig{Options: DefaultOptions()})
	out, err := svc.Run(context.Background(), RunRequest{Source: src, Init: init, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	stored, err := svc.Profile(out.ProfileID)
	if err != nil {
		t.Fatal(err)
	}

	prog, err := Compile(src, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrace()
	if _, err := NewRunner(WithInit(init), WithTrace(tr)).Run(prog); err != nil {
		t.Fatal(err)
	}
	direct := profile.FromEvents(tr.Events(), stored.Meta)
	if direct == nil {
		t.Fatal("direct run produced no profile")
	}
	db, _ := direct.Marshal()
	sb, _ := stored.Marshal()
	if !bytes.Equal(db, sb) {
		t.Errorf("service and library profiles differ: %s", firstDiff(db, sb))
	}
	if fmt.Sprintf("%d", stored.Runs) != "1" {
		t.Errorf("stored profile runs = %d, want 1", stored.Runs)
	}
}
