package fortd

// The self-contained HTML performance page: one traced compile and run
// of a workload, distilled once (the analysis and the profile table
// read the same rows), with an optional processor sweep, laid out by
// analyze.WriteHTML. `fdrun -report` calls PageSection directly; the
// daemon's GET /report/{id} is Service.Page.

import (
	"context"
	"fmt"
	"time"

	"fortd/internal/profile"
	"fortd/internal/trace/analyze"
)

// PageSection compiles src with opts, executes it traced on the
// simulated machine, and returns the workload's section of the HTML
// performance page: communication analysis, optimization remarks, the
// profile artifact's headline figures, and — when sweepPs is
// non-empty — a processor-scaling sweep (each point is a fresh compile
// and untraced run at that P). Every compile and run stops when ctx is
// done, and every run after deadline (0: none).
func PageSection(ctx context.Context, name, src string, init map[string][]float64, opts Options, sweepPs []int, deadline time.Duration) (*analyze.Section, error) {
	tr := NewTrace()
	ex := NewExplain()
	opts.Trace = tr
	opts.Explain = ex
	prog, err := CompileContext(ctx, src, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res, err := NewRunner(WithInit(init), WithTrace(tr), WithDeadline(deadline)).RunContext(ctx, prog)
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
		sec.Tables = append(sec.Tables, profileTable(profile.FromRun(a.Run, profile.Meta{
			ProgramHash: ProgramID(src, opts),
			P:           prog.P(),
		})))
	}
	if len(sweepPs) > 0 {
		sweep, err := analyze.RunSweep(sweepPs, func(p int) (analyze.Point, error) {
			o := opts
			o.P = p
			o.Trace = nil
			o.Explain = nil
			sp, err := CompileContext(ctx, src, o)
			if err != nil {
				return analyze.Point{}, err
			}
			sr, err := NewRunner(WithInit(init), WithDeadline(deadline)).RunContext(ctx, sp)
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

// profileTable renders the profile artifact's headline figures as a
// page table, so the page shows the same numbers `fdrun -profile` and
// the daemon store.
func profileTable(p *profile.Profile) analyze.Table {
	id, _ := p.ID()
	if len(id) > 12 {
		id = id[:12]
	}
	return analyze.Table{
		Title:  "Profile",
		Header: []string{"profile id", "blocked share", "imbalance", "critical path (µs)", "msgs", "words"},
		Rows: [][]string{{
			id,
			fmt.Sprintf("%.3f", p.BlockedShare()),
			fmt.Sprintf("%.3f", p.Imbalance()),
			fmt.Sprintf("%.1f", p.Total.CriticalPath),
			fmt.Sprint(p.Total.Msgs),
			fmt.Sprint(p.Total.Words),
		}},
		Note: "same artifact definition as `fdrun -profile` and the fdd profile store (internal/profile schema v1)",
	}
}
