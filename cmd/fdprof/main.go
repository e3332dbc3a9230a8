// Command fdprof inspects, merges and compares the profile artifacts
// written by `fdrun -profile` and the fdd daemon's profile store
// (internal/profile schema v1).
//
// Usage:
//
//	fdprof top [-n 10] profile.json
//	fdprof diff [-send 0.10] [-blocked 0.10] [-msgs 0] [-words 0] old.json new.json
//	fdprof merge -o merged.json profiles/*.json
//	fdprof annotate profile.json source.f
//
// top ranks the profile's communication sites by cost (per-run means,
// so merged corpora read like one run). diff compares two artifacts
// site by site against per-metric relative thresholds and exits 1 when
// any site (or the machine-wide blocked share) regressed — the
// CI-gate shape. merge folds any number of artifacts (globs expanded)
// into one runs-weighted aggregate; merging is order-independent, so
// the output is byte-stable however the shell expands the glob.
// annotate interleaves the measured per-line communication cost with
// the Fortran source, in the style of the explain listing.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"fortd/internal/profile"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, `usage:
  fdprof top [-n 10] profile.json
  fdprof diff [-send 0.10] [-blocked 0.10] [-msgs 0] [-words 0] old.json new.json
  fdprof merge -o merged.json profiles/*.json
  fdprof annotate profile.json source.f`)
	return 2
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		return usage(stderr)
	}
	switch args[0] {
	case "top":
		return runTop(args[1:], stdout, stderr)
	case "diff":
		return runDiff(args[1:], stdout, stderr)
	case "merge":
		return runMerge(args[1:], stdout, stderr)
	case "annotate":
		return runAnnotate(args[1:], stdout, stderr)
	}
	fmt.Fprintf(stderr, "fdprof: unknown command %q\n", args[0])
	return usage(stderr)
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "fdprof:", err)
	return 1
}

func runTop(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 10, "sites to show (0: all)")
	if fs.Parse(args) != nil || fs.NArg() != 1 {
		return usage(stderr)
	}
	p, err := profile.Load(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	if err := p.WriteTop(stdout, *n); err != nil {
		return fail(stderr, err)
	}
	return 0
}

func runDiff(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	def := profile.DefaultThresholds()
	msgs := fs.Float64("msgs", def.Msgs, "relative threshold for per-site message count (negative: ignore)")
	words := fs.Float64("words", def.Words, "relative threshold for per-site words (negative: ignore)")
	send := fs.Float64("send", def.Send, "relative threshold for per-site send time (negative: ignore)")
	blocked := fs.Float64("blocked", def.Blocked, "relative threshold for per-site and machine-wide blocked time (negative: ignore)")
	if fs.Parse(args) != nil || fs.NArg() != 2 {
		return usage(stderr)
	}
	old, err := profile.Load(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	new, err := profile.Load(fs.Arg(1))
	if err != nil {
		return fail(stderr, err)
	}
	c := profile.Diff(old, new, profile.Thresholds{
		Msgs: *msgs, Words: *words, Send: *send, Blocked: *blocked,
	})
	if err := c.WriteText(stdout); err != nil {
		return fail(stderr, err)
	}
	if c.Regressed() {
		fmt.Fprintf(stdout, "%d site(s) regressed\n", len(c.Regressions()))
		return 1
	}
	return 0
}

func runMerge(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("merge", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "output file (default: stdout)")
	if fs.Parse(args) != nil || fs.NArg() == 0 {
		return usage(stderr)
	}
	var profiles []*profile.Profile
	for _, pattern := range fs.Args() {
		// the shell usually expanded the glob already; Glob also accepts
		// literal paths, and an unexpanded pattern with no match errors
		names, err := filepath.Glob(pattern)
		if err != nil {
			return fail(stderr, fmt.Errorf("%s: %w", pattern, err))
		}
		if len(names) == 0 {
			return fail(stderr, fmt.Errorf("%s: no matching profiles", pattern))
		}
		for _, name := range names {
			p, err := profile.Load(name)
			if err != nil {
				return fail(stderr, err)
			}
			profiles = append(profiles, p)
		}
	}
	m := profile.Merge(profiles...)
	if m == nil {
		return fail(stderr, fmt.Errorf("nothing to merge"))
	}
	buf, err := m.Marshal()
	if err != nil {
		return fail(stderr, err)
	}
	if *out == "" {
		_, err = stdout.Write(buf)
	} else {
		err = os.WriteFile(*out, buf, 0644)
	}
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stderr, "merged %d profile(s), %d runs (id %.12s)\n", len(profiles), m.Runs, profile.ContentID(buf))
	return 0
}

func runAnnotate(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("annotate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if fs.Parse(args) != nil || fs.NArg() != 2 {
		return usage(stderr)
	}
	p, err := profile.Load(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	src, err := os.ReadFile(fs.Arg(1))
	if err != nil {
		return fail(stderr, err)
	}
	if err := p.WriteAnnotated(stdout, string(src)); err != nil {
		return fail(stderr, err)
	}
	return 0
}
