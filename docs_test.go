package fortd

import (
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
// function with this prefix". ROADMAP.md is exempt: it names tests
// still to be written.
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
			for _, name := range cited.FindAllString(text[loc[0]:loc[1]], -1) {
				if !defined(name) {
					t.Errorf("%s:%d cites %s, which no _test.go defines",
						doc, 1+strings.Count(text[:loc[0]], "\n"), name)
				}
			}
		}
	}
}
