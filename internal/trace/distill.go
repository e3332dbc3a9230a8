package trace

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// The row types below are what a traced run is summarised into, once,
// by Distill. The text summary, the communication analysis, the HTML
// report and the profile artifact are all views over these rows. The
// profile artifact (internal/profile, schema v1) serialises Totals,
// ProcRow, SiteRow and Bucket exactly as declared here: field order
// and JSON tags are part of that schema.

// Totals holds a run's aggregates.
type Totals struct {
	// Time is the parallel time: the maximum processor clock.
	Time float64 `json:"time_us"`
	// Msgs and Words are the communication totals. A remap event counts
	// its partner messages, the way the cost model charges it, so both
	// match machine.Stats.
	Msgs  int64 `json:"msgs"`
	Words int64 `json:"words"`
	// Clock, Compute, Send and Blocked sum the per-processor breakdown
	// machine-wide (Clock = Compute + Send + Blocked).
	Clock   float64 `json:"clock_us"`
	Compute float64 `json:"compute_us"`
	Send    float64 `json:"send_us"`
	Blocked float64 `json:"blocked_us"`
	// CriticalPath estimates the longest dependence chain through the
	// run in virtual µs: per-processor execution chains joined by
	// send→recv edges wherever a receive actually blocked. Parallel
	// time can exceed it only through imbalance the chain does not see.
	CriticalPath float64 `json:"critical_path_us"`
}

// ProcRow breaks one processor's virtual clock into where the time
// went.
type ProcRow struct {
	PID int `json:"pid"`
	// Clock is the processor's final virtual time.
	Clock float64 `json:"clock_us"`
	// Compute is Clock minus Send minus Blocked: time advancing the
	// clock through arithmetic.
	Compute float64 `json:"compute_us"`
	// Send is virtual time charged for message startup and remap
	// transfers on this processor.
	Send float64 `json:"send_us"`
	// Blocked is cumulative time stalled waiting for data.
	Blocked float64 `json:"blocked_us"`
}

// Imbalance is the max-over-mean busy-time ratio across processors,
// busy being clock minus blocked: 1.0 is a perfectly balanced run, 0
// means no per-processor data.
func Imbalance(procs []ProcRow) float64 {
	if len(procs) == 0 {
		return 0
	}
	var sum, max float64
	for _, pr := range procs {
		busy := pr.Clock - pr.Blocked
		sum += busy
		if busy > max {
			max = busy
		}
	}
	if mean := sum / float64(len(procs)); mean > 0 {
		return max / mean
	}
	return 0
}

// SiteKey identifies one communication site: every message the
// (procedure, line, operation) triple generated. PID is -1 for
// attributed sites and the observing processor for events that carried
// no procedure context, so two processors' unattributed costs never
// collapse into one row.
type SiteKey struct {
	Proc string `json:"proc"`
	Line int    `json:"line"`
	PID  int    `json:"pid"`
	Op   string `json:"op"`
}

// Site renders the site label ("DGEFA:12", or "(unattributed p3)" for
// an event stream that carried no procedure context).
func (k SiteKey) Site() string {
	if k.Proc == "" {
		if k.PID >= 0 {
			return fmt.Sprintf("(unattributed p%d)", k.PID)
		}
		return "(unattributed)"
	}
	if k.Line == 0 {
		return k.Proc
	}
	return fmt.Sprintf("%s:%d", k.Proc, k.Line)
}

// Less is the canonical row order: by procedure, line, PID, operation.
func (k SiteKey) Less(o SiteKey) bool {
	if k.Proc != o.Proc {
		return k.Proc < o.Proc
	}
	if k.Line != o.Line {
		return k.Line < o.Line
	}
	if k.PID != o.PID {
		return k.PID < o.PID
	}
	return k.Op < o.Op
}

// SiteRow is one communication site's cost, charged on the sending
// side (startup/transfer) and the receiving side (blocked waits).
type SiteRow struct {
	SiteKey
	// Msgs counts messages, Words the payload total.
	Msgs  int64 `json:"msgs"`
	Words int64 `json:"words"`
	// Send is sender-side injection time, Blocked receiver-side stall
	// time attributed to the site, in µs.
	Send    float64 `json:"send_us"`
	Blocked float64 `json:"blocked_us"`
	// CPShare estimates the fraction of the critical path this site can
	// occupy: the worst single processor's cost at the site divided by
	// the critical-path length. The aggregate Cost() can be much larger
	// — P processors blocking in parallel all charge the same site —
	// but a chain passes through one processor at a time.
	CPShare float64 `json:"cp_share"`
}

// Cost is the site's total communication time in µs.
func (s SiteRow) Cost() float64 { return s.Send + s.Blocked }

// CPSharePct is CPShare as a percentage.
func (s SiteRow) CPSharePct() float64 { return 100 * s.CPShare }

// ByCost returns the n highest-cost sites (all of them when n <= 0),
// ranked by descending cost, then words, then label.
func ByCost(sites []SiteRow, n int) []SiteRow {
	out := slices.Clone(sites)
	sort.Slice(out, func(i, j int) bool {
		x, y := out[i], out[j]
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
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Bucket is one message-size class: messages whose payload is in
// [Lo, Hi] words.
type Bucket struct {
	Lo    int   `json:"lo"`
	Hi    int   `json:"hi"`
	Msgs  int64 `json:"msgs"`
	Words int64 `json:"words"`
}

// sizeClass files a per-message payload into its power-of-two class
// [2^(k-1)+1, 2^k]; zero-word and one-word messages each get a class of
// their own. Classes are numbered in ascending Lo.
func sizeClass(words int) (class, lo, hi int) {
	switch {
	case words <= 0:
		return 0, 0, 0
	case words == 1:
		return 1, 1, 1
	}
	k := bits.Len(uint(words - 1)) // ceil(log2(words))
	return k + 1, 1<<(k-1) + 1, 1 << k
}

// FaultRow tallies one injected-fault kind (machine.FaultPlan): how
// many fired and their total injected time ("delay": delivery delay;
// "dup-drop": receiver stall). A "straggler" event's Dur is a flop-cost
// multiplier, so its Time is not a time.
type FaultRow struct {
	Name  string
	Count int64
	Time  float64
}

// Run is the distillation of one traced run.
type Run struct {
	// P is the processor count observed in the event stream; 0 means the
	// events carried no simulator activity (e.g. a compile-only trace).
	P     int
	Total Totals
	// Procs has one row per end-of-run summary, by PID; empty for a
	// partial trace that carries none.
	Procs []ProcRow
	// Sites is in SiteKey order, Histogram in ascending Lo, Faults by
	// name; each is nil when the run had none.
	Sites     []SiteRow
	Histogram []Bucket
	Faults    []FaultRow
	// Aborts are the KindAbort events in canonical order: one per
	// processor a cooperative abort or deadlock detection unblocked.
	Aborts []Event
	// Summaries are the KindProcSummary events behind Procs, by PID,
	// with the machine's own per-processor counters.
	Summaries []Event
	// Remaps counts remap events (Total.Msgs counts their partners).
	Remaps int64
}

// Traffic reports what a send-side event put on the machine: a send is
// one message to Dst; one remap event stands for Value partner messages,
// the way the cost model charges it, and having no single destination
// lands on the sender's diagonal, mirroring machine.Stats.Traffic. ok is
// false for every other kind.
func (ev *Event) Traffic() (msgs int64, dst int, ok bool) {
	switch ev.Kind {
	case KindSend:
		return 1, ev.Dst, true
	case KindRemap:
		return ev.Value, ev.Src, true
	}
	return 0, 0, false
}

// siteAcc is a site row being filled. perProc[pid] is one processor's
// share of the site's cost: the critical path runs through a single
// processor at a time, so the worst processor's cost bounds how much of
// it the site can occupy.
type siteAcc struct {
	SiteRow
	perProc []float64
}

// Distill summarises a traced run. It first reorders events into the
// exporters' canonical order (SortEvents), in place — callers hand over
// a Tracer.Events copy — because append order is the machine's
// scheduling order and a float sum taken in a different order differs
// in its last bit. Compiler events (phases, counters) are skipped.
func Distill(events []Event) *Run {
	SortEvents(events)
	r := &Run{}
	var (
		index    = map[SiteKey]int{}
		sites    []siteAcc
		sendTime []float64 // by PID
		classes  [bits.UintSize + 2]Bucket
		faults   = map[string]*FaultRow{}
	)
	grow := func(s []float64, pid int) []float64 {
		for len(s) <= pid {
			s = append(s, 0)
		}
		return s
	}
	site := func(ev *Event) *SiteRow {
		k := SiteKey{ev.Proc, ev.Line, -1, ev.Name}
		if ev.Proc == "" {
			k.PID = ev.PID
		}
		i, ok := index[k]
		if !ok {
			i = len(sites)
			index[k] = i
			sites = append(sites, siteAcc{SiteRow: SiteRow{SiteKey: k}})
		}
		s := &sites[i]
		s.perProc = grow(s.perProc, ev.PID)
		s.perProc[ev.PID] += ev.Dur
		return &s.SiteRow
	}
	for i := range events {
		ev := &events[i]
		top := ev.PID
		switch ev.Kind {
		case KindSend, KindRemap:
			msgs, _, _ := ev.Traffic()
			if ev.Kind == KindRemap {
				r.Remaps++
			}
			r.Total.Msgs += msgs
			r.Total.Words += int64(ev.Words)
			sendTime = grow(sendTime, ev.PID)
			sendTime[ev.PID] += ev.Dur
			s := site(ev)
			s.Msgs += msgs
			s.Words += int64(ev.Words)
			s.Send += ev.Dur
			each := 0
			if msgs > 0 {
				each = int(int64(ev.Words) / msgs)
			}
			class, lo, hi := sizeClass(each)
			b := &classes[class]
			b.Lo, b.Hi = lo, hi
			b.Msgs += msgs
			b.Words += int64(ev.Words)
			top = max(top, ev.Src, ev.Dst)
		case KindRecv, KindWait:
			site(ev).Blocked += ev.Dur
			// message endpoints also bound P: a partial trace (no
			// end-of-run summaries) still names every src/dst
			top = max(top, ev.Src, ev.Dst)
		case KindProcSummary:
			r.Summaries = append(r.Summaries, *ev)
		case KindFault:
			f := faults[ev.Name]
			if f == nil {
				f = &FaultRow{Name: ev.Name}
				faults[ev.Name] = f
			}
			f.Count++
			f.Time += ev.Dur
		case KindAbort:
			r.Aborts = append(r.Aborts, *ev)
		default:
			continue
		}
		r.P = max(r.P, top+1)
	}

	sort.Slice(r.Summaries, func(i, j int) bool { return r.Summaries[i].PID < r.Summaries[j].PID })
	for _, ev := range r.Summaries {
		pr := ProcRow{PID: ev.PID, Clock: ev.Dur, Blocked: ev.Wait}
		if ev.PID < len(sendTime) {
			pr.Send = sendTime[ev.PID]
		}
		pr.Compute = max(pr.Clock-pr.Blocked-pr.Send, 0)
		r.Procs = append(r.Procs, pr)
		r.Total.Time = max(r.Total.Time, pr.Clock)
		r.Total.Clock += pr.Clock
		r.Total.Compute += pr.Compute
		r.Total.Send += pr.Send
		r.Total.Blocked += pr.Blocked
	}
	if len(r.Summaries) > 0 {
		r.Total.CriticalPath = criticalPath(events, r.Summaries, r.P)
	}

	for _, s := range sites {
		if r.Total.CriticalPath > 0 {
			s.CPShare = slices.Max(s.perProc) / r.Total.CriticalPath
		}
		r.Sites = append(r.Sites, s.SiteRow)
	}
	sort.Slice(r.Sites, func(i, j int) bool { return r.Sites[i].Less(r.Sites[j].SiteKey) })
	for _, b := range classes {
		if b.Msgs != 0 || b.Words != 0 {
			r.Histogram = append(r.Histogram, b)
		}
	}
	for _, f := range faults {
		r.Faults = append(r.Faults, *f)
	}
	sort.Slice(r.Faults, func(i, j int) bool { return r.Faults[i].Name < r.Faults[j].Name })
	return r
}

// criticalPath estimates the longest dependence chain: each
// processor's events form a chain (compute gaps between consecutive
// events count as work), and a receive that blocked adds an edge from
// the matching send weighted by the message's in-flight time. A
// receive that found its data already delivered adds no edge — the
// sender did not constrain the receiver. events are in canonical
// order; sums are the run's end-of-run summaries.
func criticalPath(events, sums []Event, p int) float64 {
	type sent struct{ path, end float64 }
	var (
		cp      = make([]float64, p) // critical-path length at lastEnd[pid]
		lastEnd = make([]float64, p) // virtual time of the pid's last event
		// by Seq, sized so that even a trace of nothing but messages fits
		sends = make(map[int64]sent, len(events)/2)
		group []*Event
	)
	// chains advance in (start, end) order: canonical order already
	// groups equal starts, so only each group is reordered, by end
	for i := 0; i < len(events); {
		group = group[:0]
		for start := events[i].Start; ; {
			switch events[i].Kind {
			case KindSend, KindRecv, KindWait, KindRemap:
				group = append(group, &events[i])
			}
			if i++; i == len(events) || events[i].Start != start {
				break
			}
		}
		if len(group) > 1 {
			slices.SortStableFunc(group, func(a, b *Event) int {
				return cmp.Compare(a.Start+a.Dur, b.Start+b.Dur)
			})
		}
		for _, ev := range group {
			ready := cp[ev.PID]
			if gap := ev.Start - lastEnd[ev.PID]; gap > 0 {
				ready += gap // compute between communication events
			}
			end := ev.Start + ev.Dur
			path := ready + ev.Dur
			switch ev.Kind {
			case KindSend:
				if ev.Seq != 0 {
					sends[ev.Seq] = sent{path, end}
				}
			case KindRecv, KindWait:
				// blocked time is not chain work: the receiver's chain
				// arrives at `ready`, and if it stalled the message's
				// in-flight time from the sender's chain takes over
				path = ready
				if ev.Seq != 0 && ev.Dur > 0 {
					s := sends[ev.Seq]
					if via := s.path + (end - s.end); via > path {
						path = via
					}
				}
			}
			cp[ev.PID] = path
			lastEnd[ev.PID] = end
		}
	}
	var longest float64
	for _, ev := range sums {
		path := cp[ev.PID]
		if tail := ev.Dur - lastEnd[ev.PID]; tail > 0 {
			path += tail // compute after the last communication
		}
		longest = max(longest, path)
	}
	return longest
}
