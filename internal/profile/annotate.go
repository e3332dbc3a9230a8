package profile

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"fortd/internal/trace"
)

// WriteTop renders the n highest-cost sites as a fixed-width table,
// matching the analyze hotspot table's shape with per-run means (so a
// merged corpus reads like one run). n <= 0 prints every site.
func (p *Profile) WriteTop(w io.Writer, n int) error {
	runs := float64(p.Runs)
	if runs <= 0 {
		runs = 1
	}
	if _, err := fmt.Fprintf(w, "profile: %s workload=%s P=%d runs=%d backend=%s\n",
		short(p.Meta.ProgramHash), p.Meta.Workload, p.Meta.P, p.Runs, p.Meta.Backend); err != nil {
		return err
	}
	fmt.Fprintf(w, "parallel time %.1fµs/run  msgs=%.0f/run  words=%.0f/run  blocked-share=%.3f  imbalance=%.3f\n",
		p.Total.Time/runs, float64(p.Total.Msgs)/runs, float64(p.Total.Words)/runs,
		p.BlockedShare(), p.Imbalance())
	fmt.Fprintf(w, "  %-22s %-10s %9s %11s %13s %14s %12s %7s\n",
		"site", "op", "msgs/run", "words/run", "send(µs/run)", "blocked(µs/run)", "cost(µs/run)", "%crit")
	for _, s := range trace.ByCost(p.Sites, n) {
		fmt.Fprintf(w, "  %-22s %-10s %9.0f %11.0f %13.1f %14.1f %12.1f %6.1f%%\n",
			s.Site(), s.Op, float64(s.Msgs)/runs, float64(s.Words)/runs,
			s.Send/runs, s.Blocked/runs, s.Cost()/runs, s.CPSharePct())
	}
	return nil
}

// short abbreviates a content hash for headers.
func short(hash string) string {
	if len(hash) > 12 {
		return hash[:12]
	}
	return hash
}

// WriteAnnotated interleaves the profile's measured per-line cost with
// the Fortran source, in the explain listing's annotation style: each
// source line is followed by one "!prof" comment per site the profile
// attributes to it, and sites with no line (or whose procedure the
// source does not contain) are summarized in a header block. Costs are
// per-run means.
func (p *Profile) WriteAnnotated(w io.Writer, src string) error {
	runs := float64(p.Runs)
	if runs <= 0 {
		runs = 1
	}
	byLine := map[int][]trace.SiteRow{}
	var header []trace.SiteRow
	for _, s := range p.Sites {
		if s.Line <= 0 {
			header = append(header, s)
			continue
		}
		byLine[s.Line] = append(byLine[s.Line], s)
	}
	for _, rows := range byLine {
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].Cost() != rows[j].Cost() {
				return rows[i].Cost() > rows[j].Cost()
			}
			return rows[i].Less(rows[j].SiteKey)
		})
	}

	bw := bufio.NewWriter(w)
	for _, s := range header {
		fmt.Fprintf(bw, "!prof %s %s: %.0f msgs  %.0f words  %.1fµs/run\n",
			s.Site(), s.Op, float64(s.Msgs)/runs, float64(s.Words)/runs, s.Cost()/runs)
	}
	lines := strings.Split(strings.TrimRight(src, "\n"), "\n")
	for i, line := range lines {
		fmt.Fprintf(bw, "%4d  %s\n", i+1, line)
		for _, s := range byLine[i+1] {
			fmt.Fprintf(bw, "      !prof %s %s: %.0f msgs  %.0f words  send %.1fµs  blocked %.1fµs  (%.1f%% crit)\n",
				s.Proc, s.Op, float64(s.Msgs)/runs, float64(s.Words)/runs,
				s.Send/runs, s.Blocked/runs, s.CPSharePct())
		}
	}
	return bw.Flush()
}
