package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// fdpaper is the command built once from this directory.
var fdpaper string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "fdpaper-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fdpaper = filepath.Join(dir, "fdpaper")
	if out, err := exec.Command("go", "build", "-o", fdpaper, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestExpFlag: a misspelt experiment is a usage error listing the ones
// there are; a real one runs and exits 0.
func TestExpFlag(t *testing.T) {
	var out, errb bytes.Buffer
	cmd := exec.Command(fdpaper, "-exp", "nope")
	cmd.Stdout, cmd.Stderr = &out, &errb
	ee, ok := cmd.Run().(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Errorf("-exp nope: %v, want exit 2", ee)
	}
	for _, want := range []string{`"nope"`, "table1", "fig2v3", "fig10v12", "fig16", "overlap", "dgefa", "jacobi", "adi", "recompile"} {
		if !strings.Contains(errb.String(), want) {
			t.Errorf("stderr lacks %s: %s", want, errb.String())
		}
	}
	if out.Len() != 0 {
		t.Errorf("ran something anyway:\n%s", out.String())
	}

	table, err := exec.Command(fdpaper, "-exp", "table1").Output()
	if err != nil {
		t.Fatalf("-exp table1: %v", err)
	}
	if !strings.Contains(string(table), "Table 1") {
		t.Errorf("-exp table1 printed no table:\n%s", table)
	}
}

// TestMismatchNaN: the check every experiment makes against the
// sequential reference counts a NaN as wrong unless the reference is NaN
// too, and forgives only a difference within 1e-6.
func TestMismatchNaN(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		got, want float64
		bad       bool
	}{
		{1, 1, false},
		{1 + 1e-7, 1, false},
		{1.1, 1, true},
		{nan, 1, true},
		{1, nan, true},
		{nan, nan, false},
		{math.Inf(1), math.Inf(1), true}, // Inf - Inf is NaN: no closer than 1e-6
	}
	for _, c := range cases {
		got := map[string][]float64{"a": {0, c.got}}
		want := map[string][]float64{"a": {0, c.want}}
		name, i, bad := mismatch(got, want)
		if bad != c.bad || (bad && (name != "a" || i != 1)) {
			t.Errorf("mismatch(%v, %v) = %s[%d] %v, want %v", c.got, c.want, name, i, bad, c.bad)
		}
	}
}

// TestExpAll: every experiment runs, checks its runs against the
// sequential reference and prints its table.
func TestExpAll(t *testing.T) {
	out, err := exec.Command(fdpaper, "-exp", "all").CombinedOutput()
	if err != nil {
		t.Fatalf("-exp all: %v\n%s", err, out)
	}
	for _, want := range []string{
		"Table 1:", "Figures 2 vs 3:", "Figures 10 vs 12:", "Figure 16:", "Figure 13:",
		"§9 dgefa case study: strategy comparison", "§9 dgefa case study: processor scaling",
		"§9 dgefa case study: speedup and efficiency", "2-D Jacobi scaling",
		"§6 motivation:", "§8 recompilation analysis",
	} {
		if !strings.Contains(string(out), "================ "+want) {
			t.Errorf("-exp all printed no %q header", want)
		}
	}
}
