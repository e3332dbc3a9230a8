// Package analyze lays a simulated run's trace out as the
// communication-analysis artifacts the paper reasons with (§4–§9). The
// run's distillation — totals, the (procedure, line, operation) site
// rows ranked by communication cost, message-size classes, the
// per-processor breakdown — is trace.Distill's; this package adds what
// only the report draws, a traffic grid of at most 64×64 processor
// groups and a time-binned utilization timeline, the text and HTML
// renderings, and — via the Sweep helper — processor-scaling
// speedup/efficiency curves. It is a pure post-processing layer: it
// reads collected events only, so untraced runs pay nothing for it.
package analyze

import (
	"fmt"
	"io"

	"fortd/internal/trace"
)

// Matrix is the traffic grid: N = min(P, maxGroups) groups of
// consecutive processors, processor pid in group pid·N/P, and one cell
// per src-group→dst-group pair, filled by Event.Traffic's rule (a
// remap, which has no single destination, lands on the diagonal). For
// P ≤ maxGroups every group is one processor and the grid is the P×P
// pair matrix. It is the run's only per-pair view: the machine counts
// per processor, and each row re-adds to its group's summed Sent and
// Words.
type Matrix struct {
	P     int // processors
	N     int // groups, the grid's side
	Msgs  [][]int64
	Words [][]int64
	// Cost is the virtual time the pair's traffic occupied: sender
	// injection time (message startups, remap transfers) plus receiver
	// blocked time, in µs.
	Cost [][]float64
}

// maxGroups bounds the traffic grid's side, so a report's heatmap and
// the analysis text stay the size of a 64-processor run's at any P.
const maxGroups = 64

// Group returns the group processor pid falls in.
func (m *Matrix) Group(pid int) int { return pid * m.N / m.P }

// First returns the first processor of group g; group g ends where
// group g+1 begins.
func (m *Matrix) First(g int) int { return (g*m.P + m.N - 1) / m.N }

// Label names group g by its first and last processor: "p3" for a
// one-processor group, "p16-p31" otherwise.
func (m *Matrix) Label(g int) string {
	lo, hi := m.First(g), m.First(g+1)-1
	if lo == hi {
		return fmt.Sprintf("p%d", lo)
	}
	return fmt.Sprintf("p%d-p%d", lo, hi)
}

// TimeBin is one slot of the utilization timeline: processor-µs spent
// in each state across all processors during the bin's window.
type TimeBin struct {
	Start   float64
	Send    float64
	Blocked float64
	Compute float64
}

// Analysis is the run's distillation (totals, per-processor rows, site
// rows, size classes, faults, aborts — see trace.Run) plus the two
// things only the report draws: who talked to whom, and when.
type Analysis struct {
	*trace.Run
	Matrix *Matrix
	// Timeline is the binned utilization; BinWidth is each bin's µs.
	Timeline []TimeBin
	BinWidth float64
}

// timelineBins is the default timeline resolution.
const timelineBins = 64

// Analyze distills the collected events (trace.Distill, which reorders
// them into canonical order in place) and lays the same events out as
// the traffic matrix and the timeline. It returns nil when the events
// contain no simulator activity (e.g. a compile-only trace).
func Analyze(events []trace.Event) *Analysis {
	run := trace.Distill(events)
	if run.P == 0 {
		return nil
	}
	a := &Analysis{Run: run, Matrix: newMatrix(run.P)}
	a.BinWidth = a.Total.Time / timelineBins
	bins := make([]TimeBin, timelineBins)
	for i := range bins {
		bins[i].Start = float64(i) * a.BinWidth
	}
	addSpan := func(start, dur float64, f func(*TimeBin, float64)) {
		if a.BinWidth <= 0 || dur <= 0 {
			return
		}
		for i := range bins {
			lo := bins[i].Start
			hi := lo + a.BinWidth
			ov := overlap(start, start+dur, lo, hi)
			if ov > 0 {
				f(&bins[i], ov)
			}
		}
	}
	m := a.Matrix
	for i := range events {
		ev := &events[i]
		if msgs, dst, ok := ev.Traffic(); ok {
			s, d := m.Group(ev.Src), m.Group(dst)
			m.Msgs[s][d] += msgs
			m.Words[s][d] += int64(ev.Words)
			m.Cost[s][d] += ev.Dur
			addSpan(ev.Start, ev.Dur, func(b *TimeBin, ov float64) { b.Send += ov })
		} else if ev.Kind == trace.KindRecv || ev.Kind == trace.KindWait {
			m.Cost[m.Group(ev.Src)][m.Group(ev.Dst)] += ev.Dur
			addSpan(ev.Start, ev.Dur, func(b *TimeBin, ov float64) { b.Blocked += ov })
		}
	}

	// compute time per bin: each live processor's window minus its
	// communication time in the bin, summed machine-wide
	for i := range bins {
		lo := bins[i].Start
		hi := lo + a.BinWidth
		var live float64
		for _, pr := range a.Procs {
			live += overlap(0, pr.Clock, lo, hi)
		}
		if c := live - bins[i].Send - bins[i].Blocked; c > 0 {
			bins[i].Compute = c
		}
	}
	if a.BinWidth > 0 {
		a.Timeline = bins
	}
	return a
}

func newMatrix(p int) *Matrix {
	n := min(p, maxGroups)
	m := &Matrix{P: p, N: n,
		Msgs:  make([][]int64, n),
		Words: make([][]int64, n),
		Cost:  make([][]float64, n),
	}
	for i := 0; i < n; i++ {
		m.Msgs[i] = make([]int64, n)
		m.Words[i] = make([]int64, n)
		m.Cost[i] = make([]float64, n)
	}
	return m
}

func overlap(aLo, aHi, bLo, bHi float64) float64 {
	lo, hi := aLo, aHi
	if bLo > lo {
		lo = bLo
	}
	if bHi < hi {
		hi = bHi
	}
	if hi > lo {
		return hi - lo
	}
	return 0
}

// WriteText renders the analysis' machine-readable core — the traffic
// matrix and the hotspot table — as fixed-width text. The output is
// fully deterministic for a deterministic run and is pinned by a golden
// test.
func (a *Analysis) WriteText(w io.Writer) error {
	if a == nil {
		return nil
	}
	if _, err := fmt.Fprintf(w, "=== communication analysis ===\n"); err != nil {
		return err
	}
	fmt.Fprintf(w, "P=%d  parallel time %.1fµs  msgs=%d  words=%d\n",
		a.P, a.Total.Time, a.Total.Msgs, a.Total.Words)

	m := a.Matrix
	rows, width := "src rows x dst cols", 8
	if m.N < m.P {
		rows, width = "src groups x dst groups", 12
	}
	fmt.Fprintf(w, "\ntraffic matrix (msgs/words, %s; remaps on the diagonal):\n", rows)
	fmt.Fprintf(w, "%*s", width, "")
	for d := 0; d < m.N; d++ {
		fmt.Fprintf(w, " %14s", m.Label(d))
	}
	fmt.Fprintf(w, "\n")
	for s := 0; s < m.N; s++ {
		fmt.Fprintf(w, "%*s", width, m.Label(s))
		for d := 0; d < m.N; d++ {
			if m.Msgs[s][d] == 0 {
				fmt.Fprintf(w, " %14s", ".")
				continue
			}
			fmt.Fprintf(w, " %14s", fmt.Sprintf("%d/%d", m.Msgs[s][d], m.Words[s][d]))
		}
		fmt.Fprintf(w, "\n")
	}

	fmt.Fprintf(w, "\ncommunication hotspots (by cost = send + blocked time):\n")
	fmt.Fprintf(w, "  %-18s %-10s %7s %9s %11s %12s %10s %7s\n",
		"site", "op", "msgs", "words", "send(µs)", "blocked(µs)", "cost(µs)", "%crit")
	const maxHotspots = 12
	for i, h := range trace.ByCost(a.Sites, 0) {
		if i >= maxHotspots {
			fmt.Fprintf(w, "  ... %d more sites\n", len(a.Sites)-maxHotspots)
			break
		}
		fmt.Fprintf(w, "  %-18s %-10s %7d %9d %11.1f %12.1f %10.1f %6.1f%%\n",
			h.Site(), h.Op, h.Msgs, h.Words, h.Send, h.Blocked, h.Cost(), h.CPSharePct())
	}

	if len(a.Histogram) > 0 {
		fmt.Fprintf(w, "\nmessage sizes:\n")
		for _, b := range a.Histogram {
			rng := fmt.Sprintf("%d-%d words", b.Lo, b.Hi)
			if b.Lo == b.Hi {
				rng = fmt.Sprintf("%d words", b.Lo)
			}
			fmt.Fprintf(w, "  %-16s msgs=%-8d words=%d\n", rng, b.Msgs, b.Words)
		}
	}

	a.WriteFaults(w, "\ninjected faults:\n",
		"  %-12s count=%d\n", "  %-12s count=%-8d total=%.1fµs\n")
	a.WriteAborts(w, "\naborted processors:\n")
	return nil
}
