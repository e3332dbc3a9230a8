package trace

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
)

// SortEvents orders events deterministically by (Start, Seq, PID) with
// further structural tie-breaks, in place. Events are appended to a
// tracer in the order its emitters happened to run — the machine's
// scheduler, the parallel compile pipeline's workers — which is not
// part of a run's meaning; every exporter sorts a copy first, so a run
// renders as a function of its event multiset alone and two traces of
// the same deterministic run are byte-identical.
func SortEvents(events []Event) {
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		return a.Words < b.Words
	})
}

// sorted returns a sorted copy, leaving the caller's slice untouched.
func sorted(events []Event) []Event {
	out := append([]Event(nil), events...)
	SortEvents(out)
	return out
}

// jsonlEvent is the exported JSON shape of one Event. Field names are
// stable; zero-valued fields are omitted so the common kinds stay
// compact.
type jsonlEvent struct {
	Kind  string  `json:"kind"`
	Name  string  `json:"name,omitempty"`
	Proc  string  `json:"proc,omitempty"`
	Line  int     `json:"line,omitempty"`
	PID   int     `json:"pid"`
	Src   int     `json:"src,omitempty"`
	Dst   int     `json:"dst,omitempty"`
	Words int     `json:"words,omitempty"`
	Start float64 `json:"start"`
	Dur   float64 `json:"dur,omitempty"`
	Seq   int64   `json:"seq,omitempty"`
	Value int64   `json:"value,omitempty"`
	Sent  int64   `json:"sent,omitempty"`
	Recvd int64   `json:"recvd,omitempty"`
	Flops int64   `json:"flops,omitempty"`
	Wait  float64 `json:"wait,omitempty"`
}

// WriteJSONL renders the tracer's collected events with the package
// function of the same name.
func (t *Tracer) WriteJSONL(w io.Writer) error { return WriteJSONL(w, t.Events()) }

// WriteJSONL emits one JSON object per event, one per line (JSON
// Lines), in deterministic (Start, Seq, PID) order — the raw-event
// export for external tools that do not want to parse the Chrome
// format.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range sorted(events) {
		je := jsonlEvent{
			Kind: ev.Kind.String(), Name: ev.Name,
			Proc: ev.Proc, Line: ev.Line,
			PID: ev.PID, Src: ev.Src, Dst: ev.Dst, Words: ev.Words,
			Start: ev.Start, Dur: ev.Dur, Seq: ev.Seq, Value: ev.Value,
			Sent: ev.Sent, Recvd: ev.Recvd, Flops: ev.Flops, Wait: ev.Wait,
		}
		if err := enc.Encode(je); err != nil {
			return err
		}
	}
	return bw.Flush()
}
