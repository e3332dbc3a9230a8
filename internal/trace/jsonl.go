package trace

import (
	"bufio"
	"cmp"
	"encoding/json"
	"io"
	"slices"
)

// SortEvents orders events deterministically by (Start, Seq, PID) with
// further structural tie-breaks, in place. Events are appended to a
// tracer in the order its emitters happened to run — the machine's
// scheduler, the parallel compile pipeline's workers — which is not
// part of a run's meaning; the exporters and Distill put their events
// in this order first (the Tracer methods hand them a snapshot), so a
// run renders as a function of its event multiset alone and two traces
// of the same deterministic run are byte-identical.
func SortEvents(events []Event) {
	// sort 24-byte keys, not 168-byte events: most comparisons are
	// decided by the fields a key holds, and each event then moves once
	type key struct {
		start    float64
		seq      int64
		pid, idx int32
	}
	keys := make([]key, len(events))
	for i := range events {
		keys[i] = key{events[i].Start, events[i].Seq, int32(events[i].PID), int32(i)}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if a.start != b.start {
			return cmp.Compare(a.start, b.start)
		}
		if a.seq != b.seq {
			return cmp.Compare(a.seq, b.seq)
		}
		if a.pid != b.pid {
			return cmp.Compare(a.pid, b.pid)
		}
		x, y := &events[a.idx], &events[b.idx]
		return cmp.Or(cmp.Compare(x.Kind, y.Kind), cmp.Compare(x.Name, y.Name),
			cmp.Compare(x.Dst, y.Dst), cmp.Compare(x.Words, y.Words),
			cmp.Compare(a.idx, b.idx)) // ties keep append order: the sort is stable
	})
	// keys[i].idx is the event that belongs at i; move each cycle of that
	// permutation around through one spare event
	for i := range keys {
		if keys[i].idx < 0 {
			continue
		}
		spare := events[i]
		for at := i; ; {
			from := int(keys[at].idx)
			keys[at].idx = -1
			if from == i {
				events[at] = spare
				break
			}
			events[at] = events[from]
			at = from
		}
	}
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
// Lines), in canonical order, into which it reorders events — the
// raw-event export for external tools that do not want to parse the
// Chrome format.
func WriteJSONL(w io.Writer, events []Event) error {
	SortEvents(events)
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range events {
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
