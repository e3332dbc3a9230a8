package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fortd/internal/profile"
	"fortd/internal/trace"
)

// fixture builds a small two-site artifact; scale inflates the SUB:7
// blocked time so a diff against the unscaled fixture regresses.
func fixture(blockedScale float64) *profile.Profile {
	return &profile.Profile{
		Schema: profile.SchemaVersion,
		Meta:   profile.Meta{ProgramHash: "deadbeef", Workload: "fix.f", P: 2, Backend: "des"},
		Runs:   1,
		Total: trace.Totals{
			Time: 100, Msgs: 3, Words: 48,
			Clock: 200, Compute: 150, Send: 20, Blocked: 30 * blockedScale,
			CriticalPath: 110,
		},
		Procs: []trace.ProcRow{
			{PID: 0, Clock: 100, Compute: 80, Send: 20, Blocked: 0},
			{PID: 1, Clock: 100, Compute: 70, Send: 0, Blocked: 30 * blockedScale},
		},
		Sites: []trace.SiteRow{
			{SiteKey: trace.SiteKey{Proc: "MAIN", Line: 3, PID: -1, Op: "send"}, Msgs: 2, Words: 32, Send: 20, CPShare: 0.2},
			{SiteKey: trace.SiteKey{Proc: "SUB", Line: 7, PID: -1, Op: "recv"}, Msgs: 1, Words: 16, Blocked: 30 * blockedScale, CPShare: 0.3},
		},
		Histogram: []trace.Bucket{{Lo: 1, Hi: 64, Msgs: 3, Words: 48}},
	}
}

func writeFixture(t *testing.T, name string, p *profile.Profile) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if _, err := profile.WriteFile(path, p); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestTop(t *testing.T) {
	path := writeFixture(t, "p.json", fixture(1))
	var out, errb bytes.Buffer
	if code := run([]string{"top", "-n", "5", path}, &out, &errb); code != 0 {
		t.Fatalf("top = %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"MAIN:3", "SUB:7", "blocked-share"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("top output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestDiffExitCodes(t *testing.T) {
	base := writeFixture(t, "old.json", fixture(1))
	same := writeFixture(t, "same.json", fixture(1))
	worse := writeFixture(t, "worse.json", fixture(1.5))

	var out, errb bytes.Buffer
	if code := run([]string{"diff", base, same}, &out, &errb); code != 0 {
		t.Errorf("self-diff = %d, want 0\n%s%s", code, out.String(), errb.String())
	}
	out.Reset()
	if code := run([]string{"diff", base, worse}, &out, &errb); code != 1 {
		t.Errorf("regressed diff = %d, want 1\n%s", code, out.String())
	}
	if s := out.String(); !strings.Contains(s, "SUB:7") || !strings.Contains(s, "regression") {
		t.Errorf("diff output does not flag SUB:7:\n%s", s)
	}
	// a loose threshold waves the same regression through
	out.Reset()
	if code := run([]string{"diff", "-blocked", "0.60", base, worse}, &out, &errb); code != 0 {
		t.Errorf("diff with 60%% threshold = %d, want 0\n%s", code, out.String())
	}

	// an artifact claiming no runs is refused before any per-run column
	// divides by it: exit 1, the error on stderr, no table
	raw, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	norun := filepath.Join(t.TempDir(), "norun.json")
	if err := os.WriteFile(norun, bytes.Replace(raw, []byte(`"runs": 1`), []byte(`"runs": 0`), 1), 0644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"diff", norun, base}, {"diff", base, norun}} {
		out.Reset()
		errb.Reset()
		if code := run(args, &out, &errb); code != 1 {
			t.Errorf("%v = %d, want 1", args, code)
		}
		if out.Len() != 0 || !strings.Contains(errb.String(), `"runs" is 0`) {
			t.Errorf("%v: stdout %q, stderr %q; want no table and the runs error", args, out.String(), errb.String())
		}
	}
}

func TestMerge(t *testing.T) {
	dir := t.TempDir()
	for i, name := range []string{"a.json", "b.json"} {
		p := fixture(float64(i + 1))
		if _, err := profile.WriteFile(filepath.Join(dir, name), p); err != nil {
			t.Fatal(err)
		}
	}
	outPath := filepath.Join(dir, "merged.json")
	var out, errb bytes.Buffer
	if code := run([]string{"merge", "-o", outPath, filepath.Join(dir, "[ab].json")}, &out, &errb); code != 0 {
		t.Fatalf("merge = %d, stderr: %s", code, errb.String())
	}
	m, err := profile.Load(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if m.Runs != 2 || m.Total.Msgs != 6 {
		t.Errorf("merged runs=%d msgs=%d, want 2, 6", m.Runs, m.Total.Msgs)
	}
	if code := run([]string{"merge", filepath.Join(dir, "nosuch-*.json")}, &out, &errb); code != 1 {
		t.Errorf("merge with no matches = %d, want 1", code)
	}
}

func TestAnnotate(t *testing.T) {
	prof := writeFixture(t, "p.json", fixture(1))
	src := filepath.Join(t.TempDir(), "fix.f")
	lines := []string{
		"      PROGRAM MAIN", "      REAL A(100)",
		"      CALL SUB(A)", "      END",
		"      SUBROUTINE SUB(A)", "      REAL A(100)",
		"      A(1) = A(2)", "      END",
	}
	if err := os.WriteFile(src, []byte(strings.Join(lines, "\n")+"\n"), 0644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"annotate", prof, src}, &out, &errb); code != 0 {
		t.Fatalf("annotate = %d, stderr: %s", code, errb.String())
	}
	if s := out.String(); !strings.Contains(s, "!prof") || !strings.Contains(s, "CALL SUB(A)") {
		t.Errorf("annotate output:\n%s", s)
	}
}

func TestUsageAndErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Errorf("no args = %d, want 2", code)
	}
	if code := run([]string{"bogus"}, &out, &errb); code != 2 {
		t.Errorf("unknown command = %d, want 2", code)
	}
	if code := run([]string{"top", filepath.Join(t.TempDir(), "missing.json")}, &out, &errb); code != 1 {
		t.Errorf("top missing file = %d, want 1", code)
	}
}
