package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// fdrun is the command built once from this directory; the tests drive
// it the way a user does, so exit codes and streams are the real ones.
var fdrun string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "fdrun-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fdrun = filepath.Join(dir, "fdrun")
	if out, err := exec.Command("go", "build", "-o", fdrun, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runCmd runs fdrun with args and returns its exit code and streams.
func runCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	cmd := exec.Command(fdrun, args...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatal(err)
		}
		code = ee.ExitCode()
	}
	return code, out.String(), errb.String()
}

func testdata(name string) string { return filepath.Join("..", "..", "testdata", name) }

// TestReport: -report is the report command; the page is
// self-contained and carries the heatmap.
func TestReport(t *testing.T) {
	page := filepath.Join(t.TempDir(), "r.html")
	code, stdout, stderr := runCmd(t, "-report", page, "-sweep", "1,2,4", testdata("dgefa.f"))
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "report: wrote "+page) || !strings.Contains(stdout, "matches sequential reference: true") {
		t.Errorf("stdout:\n%s", stdout)
	}
	html, err := os.ReadFile(page)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`id="heatmap"`, "</html>"} {
		if !bytes.Contains(html, []byte(want)) {
			t.Errorf("report lacks %s", want)
		}
	}
}

// TestUnknownStrategy: a misspelt strategy is a usage error naming the
// valid ones, not a silent interprocedural run.
func TestUnknownStrategy(t *testing.T) {
	code, stdout, stderr := runCmd(t, "-strategy", "bogus", testdata("jacobi2d.f"))
	if code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if stdout != "" {
		t.Errorf("ran anyway:\n%s", stdout)
	}
	for _, want := range []string{`"bogus"`, "interproc", "runtime", "immediate"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr lacks %s: %s", want, stderr)
		}
	}
	if code, _, stderr := runCmd(t, "-strategy", "runtime", "-check=false", testdata("jacobi2d.f")); code != 0 {
		t.Errorf("-strategy runtime: exit %d, stderr: %s", code, stderr)
	}
}

// TestDeadlockExits: a mismatched SPMD program terminates within the
// deadline, non-zero, with the machine's deadlock report.
func TestDeadlockExits(t *testing.T) {
	code, _, stderr := runCmd(t, "-spmd", "-deadline", "10s", testdata("deadlock.f"))
	if code == 0 {
		t.Error("mismatched SPMD program exited zero")
	}
	for _, want := range []string{"deadlock", "MISMATCH"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr)
		}
	}
}

// TestNaNIsAMismatch: a compiled result that is NaN where the reference
// is finite fails the check (a difference of NaN is neither above nor
// below a tolerance). myproc() is 0 in the sequential reference, so the
// elements the other processors own are the square root of a negative.
func TestNaNIsAMismatch(t *testing.T) {
	src := filepath.Join(t.TempDir(), "nan.f")
	if err := os.WriteFile(src, []byte(`
      PROGRAM NANS
      PARAMETER (n$proc = 4)
      REAL a(8)
      DISTRIBUTE a(BLOCK)
      do i = 1, 8
        a(i) = SQRT(0.5 - myproc())
      enddo
      END
`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runCmd(t, src)
	if code != 1 {
		t.Errorf("exit %d, want 1; stderr: %s", code, stderr)
	}
	for _, want := range []string{"MISMATCH a[2]: NaN != 0.707", "matches sequential reference: false"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
}

// TestParseSweep covers the -sweep syntax: dedup, sort, rejection.
func TestParseSweep(t *testing.T) {
	got, err := parseSweep(" 8, 1,2, 4,2 ")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("parseSweep = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parseSweep = %v, want %v", got, want)
		}
	}
	if got, err := parseSweep(""); err != nil || got != nil {
		t.Errorf("parseSweep(\"\") = %v, %v; want nil, nil", got, err)
	}
	for _, bad := range []string{"0", "-1", "x", "1,,2"} {
		if _, err := parseSweep(bad); err == nil {
			t.Errorf("parseSweep(%q) accepted", bad)
		}
	}
}
