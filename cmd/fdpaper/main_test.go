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
