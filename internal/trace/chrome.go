package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Process ids used in the Chrome export: the compiler's wall-clock
// timeline and the simulated machine's virtual-time timelines are kept
// in separate process groups so the two time bases never interleave on
// one track.
const (
	ChromePIDCompiler = 0
	ChromePIDMachine  = 1
)

// chromeEvent is one record of the Chrome trace_event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
type chromeEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat,omitempty"`
	Ph   string                 `json:"ph"`
	TS   float64                `json:"ts"`
	Dur  float64                `json:"dur,omitempty"`
	PID  int                    `json:"pid"`
	TID  int                    `json:"tid"`
	ID   int64                  `json:"id,omitempty"`
	BP   string                 `json:"bp,omitempty"`
	Args map[string]interface{} `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome renders the tracer's collected events with the package
// function of the same name.
func (t *Tracer) WriteChrome(w io.Writer) error { return WriteChrome(w, t.Events()) }

// WriteChrome renders events as Chrome trace_event JSON, loadable in
// chrome://tracing and Perfetto. Compiler phases appear under pid 0
// (wall-clock µs); each simulated processor is a thread of pid 1
// (virtual µs). Messages are drawn as flow arrows from the send slice
// to the matching receive slice. Slices on each thread are emitted in
// nondecreasing timestamp order, as the format requires; events are
// reordered into canonical order.
func WriteChrome(w io.Writer, events []Event) error {
	SortEvents(events)
	var out []chromeEvent
	meta := func(pid, tid int, ph string, args map[string]interface{}) {
		name := "process_name"
		if ph == "t" {
			name = "thread_name"
			ph = "M"
		}
		out = append(out, chromeEvent{Name: name, Ph: ph, PID: pid, TID: tid, Args: args})
	}
	meta(ChromePIDCompiler, 0, "M", map[string]interface{}{"name": "fortd compiler (wall-clock µs)"})
	meta(ChromePIDMachine, 0, "M", map[string]interface{}{"name": "simulated machine (virtual µs)"})

	procs := map[int]bool{}
	var slices []chromeEvent
	for _, ev := range events {
		switch ev.Kind {
		case KindPhase:
			slices = append(slices, chromeEvent{
				Name: ev.Name, Cat: "compile", Ph: "X",
				TS: ev.Start, Dur: ev.Dur,
				PID: ChromePIDCompiler, TID: 0,
			})
		case KindCounter:
			// counters have no time base of their own; attach them to the
			// compiler track as instants so they remain visible
			slices = append(slices, chromeEvent{
				Name: ev.Name, Cat: "compile", Ph: "i",
				TS: ev.Start, PID: ChromePIDCompiler, TID: 0,
				Args: map[string]interface{}{"value": ev.Value},
			})
		case KindSend:
			procs[ev.PID] = true
			args := commArgs(ev)
			slices = append(slices, chromeEvent{
				Name: ev.Name, Cat: "comm", Ph: "X",
				TS: ev.Start, Dur: ev.Dur,
				PID: ChromePIDMachine, TID: ev.PID, Args: args,
			})
			if ev.Seq > 0 {
				slices = append(slices, chromeEvent{
					Name: "msg", Cat: "msg", Ph: "s", ID: ev.Seq,
					TS: ev.Start + ev.Dur, PID: ChromePIDMachine, TID: ev.PID,
				})
			}
		case KindRecv, KindWait:
			procs[ev.PID] = true
			args := commArgs(ev)
			slices = append(slices, chromeEvent{
				Name: "wait " + ev.Name, Cat: "comm", Ph: "X",
				TS: ev.Start, Dur: ev.Dur,
				PID: ChromePIDMachine, TID: ev.PID, Args: args,
			})
			if ev.Seq > 0 {
				slices = append(slices, chromeEvent{
					Name: "msg", Cat: "msg", Ph: "f", BP: "e", ID: ev.Seq,
					TS: ev.Start + ev.Dur, PID: ChromePIDMachine, TID: ev.PID,
				})
			}
		case KindRemap:
			procs[ev.PID] = true
			slices = append(slices, chromeEvent{
				Name: "remap", Cat: "comm", Ph: "X",
				TS: ev.Start, Dur: ev.Dur,
				PID: ChromePIDMachine, TID: ev.PID, Args: commArgs(ev),
			})
		case KindFault:
			procs[ev.PID] = true
			slices = append(slices, chromeEvent{
				Name: "fault " + ev.Name, Cat: "fault", Ph: "i",
				TS: ev.Start, PID: ChromePIDMachine, TID: ev.PID,
				Args: map[string]interface{}{
					"src": ev.Src, "dst": ev.Dst, "cost": ev.Dur,
				},
			})
		case KindAbort:
			procs[ev.PID] = true
			slices = append(slices, chromeEvent{
				Name: "abort " + ev.Name, Cat: "abort", Ph: "i",
				TS: ev.Start, PID: ChromePIDMachine, TID: ev.PID,
				Args: commArgs(ev),
			})
		case KindProcSummary:
			procs[ev.PID] = true
			slices = append(slices, chromeEvent{
				Name: "totals", Cat: "proc", Ph: "i",
				TS: ev.Dur, PID: ChromePIDMachine, TID: ev.PID,
				Args: map[string]interface{}{
					"clock":    ev.Dur,
					"sent":     ev.Sent,
					"received": ev.Recvd,
					"words":    ev.Words,
					"flops":    ev.Flops,
					"wait":     ev.Wait,
				},
			})
		}
	}
	pids := make([]int, 0, len(procs))
	for pid := range procs {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		meta(ChromePIDMachine, pid, "t", map[string]interface{}{"name": fmt.Sprintf("cpu %d", pid)})
	}
	sort.SliceStable(slices, func(i, j int) bool {
		a, b := slices[i], slices[j]
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		return a.TS < b.TS
	})
	out = append(out, slices...)

	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: out, DisplayTimeUnit: "ms"})
}

func commArgs(ev Event) map[string]interface{} {
	args := map[string]interface{}{
		"src": ev.Src, "dst": ev.Dst, "words": ev.Words,
	}
	if ev.Proc != "" {
		args["proc"] = ev.Proc
	}
	if ev.Line != 0 {
		args["line"] = ev.Line
	}
	return args
}
