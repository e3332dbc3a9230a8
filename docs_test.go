package fortd

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsCiteRealTests: every back-quoted Test…, Fuzz… or Benchmark…
// name in DESIGN.md, EXPERIMENTS.md and README.md is a func in some
// _test.go of this module or of bench/; a trailing * cites "some
// function with this prefix". Likewise every back-quoted cmd/<name> is
// a directory under cmd/ and every back-quoted make <target> a target
// of the Makefile. ROADMAP.md is exempt: it names tests still to be
// written.
func TestDocsCiteRealTests(t *testing.T) {
	funcRe := regexp.MustCompile(`(?m)^func (?:\([^)]*\) )?((?:Test|Fuzz|Benchmark)\w*)\(`)
	var funcs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range funcRe.FindAllSubmatch(src, -1) {
			funcs = append(funcs, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defined := func(name string) bool {
		prefix := strings.HasSuffix(name, "*")
		name = strings.TrimSuffix(name, "*")
		for _, f := range funcs {
			if f == name || prefix && strings.HasPrefix(f, name) {
				return true
			}
		}
		return false
	}

	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	// what a document runs: a command's directory, a make target
	runs := regexp.MustCompile(`\bcmd/\w+|\bmake [a-z][\w-]*`)
	runnable := func(cite string) bool {
		if target, ok := strings.CutPrefix(cite, "make "); ok {
			return bytes.Contains(makefile, []byte("\n"+target+":"))
		}
		fi, err := os.Stat(cite)
		return err == nil && fi.IsDir()
	}

	// a citation is a name inside back quotes, alone or within a
	// command: `TestX`, `TestX/lane`, `go test -run 'TestA|TestB' .`;
	// a span may wrap over a line end, a fenced block is not a span
	fenced := regexp.MustCompile("(?ms)^```.*?^```$")
	quoted := regexp.MustCompile("`[^`]*`")
	cited := regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9]\w*\*?`)
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md", "README.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := fenced.ReplaceAllStringFunc(string(raw), func(block string) string {
			return strings.Repeat("\n", strings.Count(block, "\n"))
		})
		for _, loc := range quoted.FindAllStringIndex(text, -1) {
			span, line := text[loc[0]:loc[1]], 1+strings.Count(text[:loc[0]], "\n")
			for _, name := range cited.FindAllString(span, -1) {
				if !defined(name) {
					t.Errorf("%s:%d cites %s, which no _test.go defines", doc, line, name)
				}
			}
			for _, cite := range runs.FindAllString(span, -1) {
				if !runnable(cite) {
					t.Errorf("%s:%d cites %s, which is not a directory under cmd/ or a target of the Makefile", doc, line, cite)
				}
			}
		}
	}
}
