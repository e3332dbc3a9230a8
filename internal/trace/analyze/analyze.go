// Package analyze turns a simulated run's trace.Event stream into the
// communication-analysis artifacts the paper reasons with (§4–§9): a
// P×P traffic matrix, a ranking of (procedure, line, operation) sites
// by communication cost, message-size histograms, a time-binned
// utilization timeline, and — via the Sweep helper — processor-scaling
// speedup/efficiency curves. It is a pure post-processing layer: it
// reads collected events only, so untraced runs pay nothing for it.
package analyze

import (
	"fmt"
	"io"
	"math/bits"
	"sort"

	"fortd/internal/trace"
)

// Matrix is the P×P communication matrix: one cell per src→dst pair.
// Remap traffic, which has no single destination, lands on the
// diagonal, mirroring machine.Stats.Traffic.
type Matrix struct {
	P     int
	Msgs  [][]int64
	Words [][]int64
	// Cost is the virtual time the pair's traffic occupied: sender
	// injection time (message startups, remap transfers) plus receiver
	// blocked time, in µs.
	Cost [][]float64
}

// Hotspot is one communication site's total cost: every message the
// (procedure, line, operation) triple generated, with the time charged
// on the sending side (startup/transfer) and the receiving side
// (blocked waits).
type Hotspot struct {
	Proc string
	Line int
	// PID disambiguates unattributed sites (events carrying no
	// procedure context): it is the observing processor for those and
	// -1 for attributed sites, so two processors' unattributed costs
	// never collapse into one row.
	PID int
	Op  string
	// Msgs counts messages (a remap event counts its partner messages);
	// Words is the payload total.
	Msgs  int64
	Words int64
	// SendTime is sender-side injection time; BlockedTime is
	// receiver-side stall time attributed to the site.
	SendTime    float64
	BlockedTime float64
	// CPShare estimates the fraction of the run's critical path this
	// site can occupy: the worst single processor's cost at the site
	// divided by the critical-path length. The aggregate Cost() can be
	// much larger — P processors blocking in parallel all charge the
	// same site — but a chain passes through one processor at a time.
	CPShare float64
}

// Cost is the site's total communication time in µs.
func (h Hotspot) Cost() float64 { return h.SendTime + h.BlockedTime }

// CPSharePct is CPShare as a percentage (template convenience).
func (h Hotspot) CPSharePct() float64 { return 100 * h.CPShare }

// Site renders the site label ("DGEFA:12", or "(unattributed p3)" for
// an event stream that carried no procedure context).
func (h Hotspot) Site() string {
	if h.Proc == "" {
		if h.PID >= 0 {
			return fmt.Sprintf("(unattributed p%d)", h.PID)
		}
		return "(unattributed)"
	}
	if h.Line == 0 {
		return h.Proc
	}
	return fmt.Sprintf("%s:%d", h.Proc, h.Line)
}

// Bucket is one message-size histogram bin: messages whose payload is
// in [Lo, Hi] words.
type Bucket struct {
	Lo, Hi int
	Msgs   int64
	Words  int64
}

// FaultStat aggregates one injected-fault kind (machine.FaultPlan):
// how many faults of that kind fired and their total injected time
// ("delay": delivery delay; "dup-drop": receiver stall; "straggler":
// Dur is a multiplier, so Time is meaningless and left as the sum).
type FaultStat struct {
	Name  string
	Count int64
	Time  float64
}

// Abort is one processor's termination record from an aborted run:
// what it was blocked in when the cooperative abort (or deadlock
// detection) unblocked it.
type Abort struct {
	PID      int
	Reason   string // "abort" or "deadlock"
	Proc     string
	Line     int
	Src, Dst int
	Clock    float64
}

// TimeBin is one slot of the utilization timeline: processor-µs spent
// in each state across all processors during the bin's window.
type TimeBin struct {
	Start   float64
	Send    float64
	Blocked float64
	Compute float64
}

// Analysis is the full post-run communication analysis.
type Analysis struct {
	// P is the processor count observed in the event stream.
	P int
	// Time is the parallel time (maximum processor clock).
	Time float64
	// Msgs and Words are the run totals (remap events weighted by their
	// partner count, matching machine.Stats).
	Msgs, Words int64
	Matrix      *Matrix
	// Hotspots is sorted by descending Cost.
	Hotspots []Hotspot
	// Histogram has one bucket per occupied power-of-two size class.
	Histogram []Bucket
	// Timeline is the binned utilization; BinWidth is each bin's µs.
	Timeline []TimeBin
	BinWidth float64
	// Profile is the per-processor breakdown (nil when the events carry
	// no end-of-run summaries).
	Profile *trace.Profile
	// Faults summarizes injected faults by kind (empty without a fault
	// plan), sorted by name; Aborts lists aborted processors in event
	// order (empty for a clean run).
	Faults []FaultStat
	Aborts []Abort
}

// timelineBins is the default timeline resolution.
const timelineBins = 64

// Analyze derives the communication analysis from collected events,
// which it reorders into the exporters' canonical order (SortEvents).
// It returns nil when the events contain no simulator activity (e.g. a
// compile-only trace).
func Analyze(events []trace.Event) *Analysis {
	// fold in the exporters' canonical order, not in append order: that
	// is the machine's scheduling order, and a float sum taken in a
	// different order differs in its last bit. The sort is in
	// place (callers hand over a Tracer.Events copy) to spare a second
	// copy of a trace that can run to hundreds of thousands of events.
	trace.SortEvents(events)
	p := 0
	any := false
	var clocks []float64
	for _, ev := range events {
		switch ev.Kind {
		case trace.KindSend, trace.KindRecv, trace.KindWait, trace.KindRemap,
			trace.KindProcSummary, trace.KindFault, trace.KindAbort:
			any = true
			if ev.PID+1 > p {
				p = ev.PID + 1
			}
			// message endpoints also bound P: a partial trace (no
			// end-of-run summaries) must still size the matrix to hold
			// every src/dst it mentions
			switch ev.Kind {
			case trace.KindSend, trace.KindRecv, trace.KindWait, trace.KindRemap:
				if ev.Src+1 > p {
					p = ev.Src + 1
				}
				if ev.Dst+1 > p {
					p = ev.Dst + 1
				}
			}
			if ev.Kind == trace.KindProcSummary {
				for len(clocks) < ev.PID+1 {
					clocks = append(clocks, 0)
				}
				clocks[ev.PID] = ev.Dur
			}
		}
	}
	if !any {
		return nil
	}
	a := &Analysis{P: p, Profile: trace.ComputeProfile(events)}
	for _, c := range clocks {
		if c > a.Time {
			a.Time = c
		}
	}

	a.Matrix = newMatrix(p)
	type siteID struct {
		proc string
		line int
		pid  int // -1 for attributed sites, observer PID otherwise
		op   string
	}
	sites := map[siteID]*Hotspot{}
	hist := map[int]*Bucket{}
	a.BinWidth = a.Time / timelineBins
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

	// perProcCost[site][pid]: one processor's share of the site's cost.
	// The critical path runs through a single processor at a time, so
	// the worst processor's cost bounds how much of it the site can
	// occupy; the aggregate cost can legitimately exceed the critical
	// path (P processors wait in parallel).
	perProcCost := map[*Hotspot]map[int]float64{}
	faults := map[string]*FaultStat{}
	site := func(ev trace.Event) *Hotspot {
		k := siteID{ev.Proc, ev.Line, -1, ev.Name}
		if ev.Proc == "" {
			// no procedure context: fall back to the observing processor
			// so distinct unattributed sites stay distinct rows
			k.pid = ev.PID
		}
		h := sites[k]
		if h == nil {
			h = &Hotspot{Proc: ev.Proc, Line: ev.Line, PID: k.pid, Op: ev.Name}
			sites[k] = h
			perProcCost[h] = map[int]float64{}
		}
		perProcCost[h][ev.PID] += ev.Dur
		return h
	}
	for _, ev := range events {
		switch ev.Kind {
		case trace.KindSend, trace.KindRemap:
			weight := int64(1)
			dst := ev.Dst
			if ev.Kind == trace.KindRemap {
				weight = ev.Value
				dst = ev.Src // diagonal
			}
			a.Msgs += weight
			a.Words += int64(ev.Words)
			a.Matrix.Msgs[ev.Src][dst] += weight
			a.Matrix.Words[ev.Src][dst] += int64(ev.Words)
			a.Matrix.Cost[ev.Src][dst] += ev.Dur
			h := site(ev)
			h.Msgs += weight
			h.Words += int64(ev.Words)
			h.SendTime += ev.Dur
			bucketFor(hist, weight, int64(ev.Words))
			addSpan(ev.Start, ev.Dur, func(b *TimeBin, ov float64) { b.Send += ov })
		case trace.KindRecv, trace.KindWait:
			a.Matrix.Cost[ev.Src][ev.Dst] += ev.Dur
			site(ev).BlockedTime += ev.Dur
			addSpan(ev.Start, ev.Dur, func(b *TimeBin, ov float64) { b.Blocked += ov })
		case trace.KindFault:
			fs := faults[ev.Name]
			if fs == nil {
				fs = &FaultStat{Name: ev.Name}
				faults[ev.Name] = fs
			}
			fs.Count++
			fs.Time += ev.Dur
		case trace.KindAbort:
			a.Aborts = append(a.Aborts, Abort{
				PID: ev.PID, Reason: ev.Name,
				Proc: ev.Proc, Line: ev.Line,
				Src: ev.Src, Dst: ev.Dst, Clock: ev.Start,
			})
		}
	}
	for _, fs := range faults {
		a.Faults = append(a.Faults, *fs)
	}
	sort.Slice(a.Faults, func(i, j int) bool { return a.Faults[i].Name < a.Faults[j].Name })

	// compute time per bin: each live processor's window minus its
	// communication time in the bin, summed machine-wide
	for i := range bins {
		lo := bins[i].Start
		hi := lo + a.BinWidth
		var live float64
		for _, c := range clocks {
			live += overlap(0, c, lo, hi)
		}
		if c := live - bins[i].Send - bins[i].Blocked; c > 0 {
			bins[i].Compute = c
		}
	}
	if a.BinWidth > 0 {
		a.Timeline = bins
	}

	var cp float64
	if a.Profile != nil {
		cp = a.Profile.CriticalPath
	}
	for _, h := range sites {
		if cp > 0 {
			var worst float64
			for _, c := range perProcCost[h] {
				if c > worst {
					worst = c
				}
			}
			h.CPShare = worst / cp
		}
		a.Hotspots = append(a.Hotspots, *h)
	}
	sort.Slice(a.Hotspots, func(i, j int) bool {
		x, y := a.Hotspots[i], a.Hotspots[j]
		if x.Cost() != y.Cost() {
			return x.Cost() > y.Cost()
		}
		if x.Words != y.Words {
			return x.Words > y.Words
		}
		if x.Site() != y.Site() {
			return x.Site() < y.Site()
		}
		return x.Op < y.Op
	})

	for _, b := range hist {
		a.Histogram = append(a.Histogram, *b)
	}
	sort.Slice(a.Histogram, func(i, j int) bool { return a.Histogram[i].Lo < a.Histogram[j].Lo })
	return a
}

func newMatrix(p int) *Matrix {
	m := &Matrix{P: p,
		Msgs:  make([][]int64, p),
		Words: make([][]int64, p),
		Cost:  make([][]float64, p),
	}
	for i := 0; i < p; i++ {
		m.Msgs[i] = make([]int64, p)
		m.Words[i] = make([]int64, p)
		m.Cost[i] = make([]float64, p)
	}
	return m
}

// bucketFor files count messages carrying totalWords between them into
// the power-of-two size class [2^(k-1)+1, 2^k] of the per-message
// payload (zero-word messages get their own [0,0] class).
func bucketFor(hist map[int]*Bucket, count, totalWords int64) {
	words := int(0)
	if count > 0 {
		words = int(totalWords / count)
	}
	lo, hi := 0, 0
	if words > 0 {
		k := bits.Len(uint(words - 1)) // ceil(log2(words))
		hi = 1 << k
		lo = hi/2 + 1
		if words == 1 {
			lo, hi = 1, 1
		}
	}
	b := hist[hi]
	if b == nil {
		b = &Bucket{Lo: lo, Hi: hi}
		hist[hi] = b
	}
	b.Msgs += count
	b.Words += totalWords
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
		a.P, a.Time, a.Msgs, a.Words)

	fmt.Fprintf(w, "\ntraffic matrix (msgs/words, src rows x dst cols; remaps on the diagonal):\n")
	fmt.Fprintf(w, "%8s", "")
	for d := 0; d < a.P; d++ {
		fmt.Fprintf(w, " %14s", fmt.Sprintf("p%d", d))
	}
	fmt.Fprintf(w, "\n")
	for s := 0; s < a.P; s++ {
		fmt.Fprintf(w, "%8s", fmt.Sprintf("p%d", s))
		for d := 0; d < a.P; d++ {
			if a.Matrix.Msgs[s][d] == 0 {
				fmt.Fprintf(w, " %14s", ".")
				continue
			}
			fmt.Fprintf(w, " %14s", fmt.Sprintf("%d/%d", a.Matrix.Msgs[s][d], a.Matrix.Words[s][d]))
		}
		fmt.Fprintf(w, "\n")
	}

	fmt.Fprintf(w, "\ncommunication hotspots (by cost = send + blocked time):\n")
	fmt.Fprintf(w, "  %-18s %-10s %7s %9s %11s %12s %10s %7s\n",
		"site", "op", "msgs", "words", "send(µs)", "blocked(µs)", "cost(µs)", "%crit")
	const maxHotspots = 12
	for i, h := range a.Hotspots {
		if i >= maxHotspots {
			fmt.Fprintf(w, "  ... %d more sites\n", len(a.Hotspots)-maxHotspots)
			break
		}
		fmt.Fprintf(w, "  %-18s %-10s %7d %9d %11.1f %12.1f %10.1f %6.1f%%\n",
			h.Site(), h.Op, h.Msgs, h.Words, h.SendTime, h.BlockedTime, h.Cost(), 100*h.CPShare)
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

	if len(a.Faults) > 0 {
		fmt.Fprintf(w, "\ninjected faults:\n")
		for _, fs := range a.Faults {
			if fs.Name == "straggler" {
				// Time holds flop-cost multipliers, not µs
				fmt.Fprintf(w, "  %-12s count=%d\n", fs.Name, fs.Count)
				continue
			}
			fmt.Fprintf(w, "  %-12s count=%-8d total=%.1fµs\n", fs.Name, fs.Count, fs.Time)
		}
	}
	if len(a.Aborts) > 0 {
		fmt.Fprintf(w, "\naborted processors:\n")
		for _, ab := range a.Aborts {
			site := "(unattributed)"
			if ab.Proc != "" {
				site = fmt.Sprintf("%s:%d", ab.Proc, ab.Line)
			}
			fmt.Fprintf(w, "  p%-3d %-9s p%d->p%d at %-18s clock=%.1fµs\n",
				ab.PID, ab.Reason, ab.Src, ab.Dst, site, ab.Clock)
		}
	}
	return nil
}
