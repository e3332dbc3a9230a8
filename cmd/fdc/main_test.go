package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"fortd"
)

// fdc is the command built once from this directory; the tests drive
// it the way a user does, so exit codes and streams are the real ones.
var fdc string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "fdc-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fdc = filepath.Join(dir, "fdc")
	if out, err := exec.Command("go", "build", "-o", fdc, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runCmd runs fdc with args and returns its exit code and streams.
func runCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	cmd := exec.Command(fdc, args...)
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

// TestUsageErrors: a missing file argument and a misspelt flag value
// are usage errors (2) that say what was wrong; a file that cannot be
// read is a failure (1). None of them prints a listing.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
		want string
	}{
		{"no argument", nil, 2, "usage: fdc [flags] file.f"},
		{"unreadable file", []string{filepath.Join(t.TempDir(), "absent.f")}, 1, "absent.f"},
		{"unknown strategy", []string{"-strategy", "nope", testdata("jacobi2d.f")}, 2, `unknown strategy "nope"`},
		{"unknown remap level", []string{"-remap", "nope", testdata("jacobi2d.f")}, 2, `unknown remap level "nope"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCmd(t, tc.args...)
			if code != tc.code {
				t.Errorf("exit %d, want %d", code, tc.code)
			}
			if !strings.Contains(stderr, tc.want) {
				t.Errorf("stderr lacks %q: %s", tc.want, stderr)
			}
			if stdout != "" {
				t.Errorf("compiled anyway:\n%s", stdout)
			}
		})
	}
}

// TestListingIsTheLibraryListing: without its report fdc prints exactly
// what fortd.Compile returns — the listing cmd/fdd's
// TestDaemonCompileRunReport holds the daemon's response to, so the two
// front ends cannot print different programs for one source.
func TestListingIsTheLibraryListing(t *testing.T) {
	src, err := os.ReadFile(testdata("jacobi2d.f"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := fortd.Compile(string(src), fortd.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runCmd(t, "-report=false", testdata("jacobi2d.f"))
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	if stdout != prog.Listing() {
		t.Errorf("fdc -report=false differs from fortd.Compile(...).Listing():\n%s", stdout)
	}
}

// TestReportIsDeterministic: fig4 clones four procedures, and the
// report's clone lines used to come out in map order.
func TestReportIsDeterministic(t *testing.T) {
	_, first, _ := runCmd(t, testdata("fig4.f"))
	if n := strings.Count(first, "! clone "); n != 4 {
		t.Fatalf("%d clone lines, want 4:\n%s", n, first)
	}
	for i := 1; i < 5; i++ {
		if code, again, stderr := runCmd(t, testdata("fig4.f")); code != 0 || again != first {
			t.Fatalf("run %d (exit %d, stderr %q) printed different bytes:\n%s\nfirst run:\n%s", i, code, stderr, again, first)
		}
	}
}
