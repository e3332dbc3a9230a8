package trace

import (
	"fmt"
	"io"
	"sort"
)

// WriteText renders the tracer's collected events with the package
// function of the same name.
func (t *Tracer) WriteText(w io.Writer) error { return WriteText(w, t.Events()) }

// WriteText renders the human-readable trace summary: compile phase
// timings and counters, then the run's distillation — totals, injected
// faults, aborted processors, the communication sites by volume with
// the attribution rate, and the per-processor rows. It reorders events
// into canonical order. Sections with nothing to show are omitted, so
// a run-only trace contains no compiler lines and its output is fully
// deterministic (virtual time only).
func WriteText(w io.Writer, events []Event) error {
	r := Distill(events)
	if _, err := fmt.Fprintf(w, "=== trace summary ===\n"); err != nil {
		return err
	}
	// compile events are listed, not aggregated; phases come out in start
	// order, which New's single-pass pipeline makes the natural reading
	// order
	title := "\ncompile phases:\n"
	for _, ev := range events {
		if ev.Kind == KindPhase {
			io.WriteString(w, title)
			title = ""
			fmt.Fprintf(w, "  %-28s %10.1fµs\n", ev.Name, ev.Dur)
		}
	}
	title = "\ncompile counters:\n"
	for _, ev := range events {
		if ev.Kind == KindCounter {
			io.WriteString(w, title)
			title = ""
			fmt.Fprintf(w, "  %-28s %10d\n", ev.Name, ev.Value)
		}
	}

	fmt.Fprintf(w, "\nrun: %d messages, %d words", r.Total.Msgs, r.Total.Words)
	if r.Remaps > 0 {
		fmt.Fprintf(w, " (%d remap events)", r.Remaps)
	}
	fmt.Fprintf(w, "\n")
	r.WriteFaults(w, "injected faults (seeded fault plan):\n",
		"  %-12s count=%-6d\n", "  %-12s count=%-6d total=%.1fµs\n")
	r.WriteAborts(w, "aborted processors:\n")
	r.writeSites(w)
	r.writeProcs(w)
	return nil
}

// WriteFaults prints the injected-fault tallies under title, one line
// per kind in the caller's column layout: timed takes name, count and
// total µs; a straggler's Time sums flop-cost multipliers, not µs, so
// its line (countOnly) takes name and count alone. Prints nothing for
// a run without a fault plan.
func (r *Run) WriteFaults(w io.Writer, title, countOnly, timed string) {
	if len(r.Faults) == 0 {
		return
	}
	io.WriteString(w, title)
	for _, f := range r.Faults {
		if f.Name == "straggler" {
			fmt.Fprintf(w, countOnly, f.Name, f.Count)
			continue
		}
		fmt.Fprintf(w, timed, f.Name, f.Count, f.Time)
	}
}

// WriteAborts prints, under title, what each aborted processor was
// blocked in when the abort or the deadlock detector unblocked it.
// Prints nothing for a clean run.
func (r *Run) WriteAborts(w io.Writer, title string) {
	if len(r.Aborts) == 0 {
		return
	}
	io.WriteString(w, title)
	for _, ev := range r.Aborts {
		site := "(unattributed)"
		if ev.Proc != "" {
			site = fmt.Sprintf("%s:%d", ev.Proc, ev.Line)
		}
		fmt.Fprintf(w, "  p%-3d %-9s p%d->p%d at %-18s clock=%.1fµs\n",
			ev.PID, ev.Name, ev.Src, ev.Dst, site, ev.Start)
	}
}

// writeSites prints the sites that sent anything, by volume; rows that
// only record a receiver's wait carry no messages of their own.
func (r *Run) writeSites(w io.Writer) {
	var list []SiteRow
	var attributed int64
	for _, s := range r.Sites {
		if s.Msgs > 0 {
			list = append(list, s)
			if s.Proc != "" {
				attributed += s.Msgs
			}
		}
	}
	if len(list) == 0 {
		return
	}
	label := func(s SiteRow) string { return s.Site() + " " + s.Op }
	sort.Slice(list, func(i, j int) bool {
		a, b := list[i], list[j]
		if a.Words != b.Words {
			return a.Words > b.Words
		}
		if a.Msgs != b.Msgs {
			return a.Msgs > b.Msgs
		}
		return label(a) < label(b)
	})
	fmt.Fprintf(w, "communication sites (by words):\n")
	const maxSites = 12
	for i, s := range list {
		if i >= maxSites {
			fmt.Fprintf(w, "  ... %d more sites\n", len(list)-maxSites)
			break
		}
		fmt.Fprintf(w, "  %-24s msgs=%-7d words=%d\n", label(s), s.Msgs, s.Words)
	}
	fmt.Fprintf(w, "attribution: %.1f%% of %d messages carry a source procedure\n",
		100*float64(attributed)/float64(r.Total.Msgs), r.Total.Msgs)
}

// writeProcs prints the machine's per-processor counters and then the
// breakdown of each clock into compute, send and blocked time.
func (r *Run) writeProcs(w io.Writer) {
	if len(r.Summaries) == 0 {
		return
	}
	pct := func(v, of float64) float64 {
		if of <= 0 {
			return 0
		}
		return 100 * v / of
	}
	fmt.Fprintf(w, "\nper-processor (parallel time %.1fµs):\n", r.Total.Time)
	for _, ev := range r.Summaries {
		busy := 100.0
		if ev.Dur > 0 {
			busy = 100 * (ev.Dur - ev.Wait) / ev.Dur
		}
		fmt.Fprintf(w, "  p%-3d clock=%-11s busy=%5.1f%%  sent=%-6d recvd=%-6d words=%-8d flops=%-8d wait=%.1fµs\n",
			ev.PID, fmt.Sprintf("%.1fµs", ev.Dur), busy, ev.Sent, ev.Recvd, int64(ev.Words), ev.Flops, ev.Wait)
	}
	fmt.Fprintf(w, "\nrun profile:\n")
	for _, pr := range r.Procs {
		fmt.Fprintf(w, "  p%-3d compute=%-11s (%5.1f%%)  send=%-10s (%5.1f%%)  blocked=%-10s (%5.1f%%)\n",
			pr.PID,
			fmt.Sprintf("%.1fµs", pr.Compute), pct(pr.Compute, pr.Clock),
			fmt.Sprintf("%.1fµs", pr.Send), pct(pr.Send, pr.Clock),
			fmt.Sprintf("%.1fµs", pr.Blocked), pct(pr.Blocked, pr.Clock))
	}
	fmt.Fprintf(w, "  load imbalance %.2f (max/mean busy time)\n", Imbalance(r.Procs))
	if r.Total.Time > 0 {
		fmt.Fprintf(w, "  critical path  %.1fµs (%.1f%% of %.1fµs parallel time)\n",
			r.Total.CriticalPath, 100*r.Total.CriticalPath/r.Total.Time, r.Total.Time)
	}
}
