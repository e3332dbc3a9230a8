// Package report assembles the self-contained HTML performance report:
// it compiles and runs a workload with tracing and optimization-remark
// collection attached, distills the event stream once (the analysis
// and the profile table read the same rows), optionally reruns the
// workload across a processor sweep for the speedup curve, and hands
// the assembled sections to analyze.WriteHTML. It is the shared engine behind
// `fdrun -report` and the fdd daemon's GET /report/{id}.
package report

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"fortd"
	"fortd/internal/profile"
	"fortd/internal/trace/analyze"
)

// BuildSection compiles src with opts, executes it traced on the
// simulated machine, and returns the workload's report section:
// communication analysis, optimization remarks, and — when sweepPs is
// non-empty — a processor-scaling sweep (each point is a fresh compile
// and untraced run at that P). Every compile and run stops when ctx is
// done, and every run after deadline (0: none).
func BuildSection(ctx context.Context, name, src string, init map[string][]float64, opts fortd.Options, sweepPs []int, deadline time.Duration) (*analyze.Section, error) {
	tr := fortd.NewTrace()
	ex := fortd.NewExplain()
	opts.Trace = tr
	opts.Explain = ex
	prog, err := fortd.CompileContext(ctx, src, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res, err := fortd.NewRunner(fortd.WithInit(init), fortd.WithTrace(tr), fortd.WithDeadline(deadline)).RunContext(ctx, prog)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	sec := &analyze.Section{
		Name:     name,
		Headline: fmt.Sprintf("P=%d  %s", prog.P(), res.Stats),
		Analysis: analyze.Analyze(tr.Events()),
		Remarks:  ex.Remarks(),
	}
	if a := sec.Analysis; a != nil {
		sec.Tables = append(sec.Tables, profile.FromRun(a.Run, profile.Meta{
			ProgramHash: fortd.ProgramID(src, opts),
			P:           prog.P(),
		}).Table())
	}
	if len(sweepPs) > 0 {
		sweep, err := analyze.RunSweep(sweepPs, func(p int) (analyze.Point, error) {
			o := opts
			o.P = p
			o.Trace = nil
			o.Explain = nil
			sp, err := fortd.CompileContext(ctx, src, o)
			if err != nil {
				return analyze.Point{}, err
			}
			sr, err := fortd.NewRunner(fortd.WithInit(init), fortd.WithDeadline(deadline)).RunContext(ctx, sp)
			if err != nil {
				return analyze.Point{}, err
			}
			return analyze.Point{Time: sr.Stats.Time, Msgs: sr.Stats.Messages, Words: sr.Stats.Words}, nil
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		sec.Sweep = sweep
	}
	return sec, nil
}

// Write renders sections into one self-contained HTML document.
func Write(w io.Writer, title, subtitle string, sections ...*analyze.Section) error {
	return analyze.WriteHTML(w, &analyze.Page{Title: title, Subtitle: subtitle, Sections: sections})
}

// WriteFile renders the report to path.
func WriteFile(path, title, subtitle string, sections ...*analyze.Section) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, title, subtitle, sections...); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ParseSweep parses a "1,2,4,8"-style processor list. An empty string
// returns nil (no sweep).
func ParseSweep(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var ps []int
	seen := map[int]bool{}
	for _, f := range strings.Split(s, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || p < 1 {
			return nil, fmt.Errorf("bad processor count %q in sweep", f)
		}
		if !seen[p] {
			seen[p] = true
			ps = append(ps, p)
		}
	}
	sort.Ints(ps)
	return ps, nil
}
