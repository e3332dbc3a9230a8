package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// The harness's own spans. They are recorded only in the traced pass,
// around the calls into each layer, from outside the program; the
// untraced samples that feed the end-to-end metrics never touch this
// file. A span's duration is also the timing the per-layer metric is
// computed from, so the numbers and the exported trace cannot disagree.

type span struct {
	Workload string
	Name     string
	ID       int // 1-based; 0 means "no parent"
	Parent   int
	Start    time.Duration // since the recorder's epoch
	End      time.Duration
}

type spans struct {
	mu    sync.Mutex
	epoch time.Time
	list  []span
}

func newSpans() *spans { return &spans{epoch: time.Now()} }

// running is an open span. With a nil recorder it is a plain stopwatch,
// so the same code times traced and untraced calls.
type running struct {
	s  *spans
	id int // 0 with a nil recorder
	t0 time.Time
}

// start opens a span under parent (0: top level).
func (s *spans) start(workload, name string, parent int) running {
	if s == nil {
		return running{t0: time.Now()}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, span{Workload: workload, Name: name, ID: len(s.list) + 1, Parent: parent})
	now := time.Now()
	s.list[len(s.list)-1].Start = now.Sub(s.epoch)
	return running{s: s, id: len(s.list), t0: now}
}

// stop closes the span and returns its duration.
func (r running) stop() time.Duration {
	d := time.Since(r.t0)
	if r.s != nil {
		r.s.mu.Lock()
		sp := &r.s.list[r.id-1]
		sp.End = sp.Start + d
		r.s.mu.Unlock()
	}
	return d
}

// time runs fn inside a span and returns the span's duration.
func (s *spans) time(workload, name string, parent int, fn func()) time.Duration {
	r := s.start(workload, name, parent)
	fn()
	return r.stop()
}

// selfRow is one (workload, span name) aggregate: total time, and self
// time = total minus the part covered by child spans.
type selfRow struct {
	Workload, Name string
	Calls          int
	Total, Self    time.Duration
}

func (s *spans) selfTimes() []selfRow {
	s.mu.Lock()
	defer s.mu.Unlock()
	// covered[id]: how much of span id its children cover; concurrent
	// children (the service's two clients) count once where they overlap
	kids := make([][]span, len(s.list)+1)
	for _, sp := range s.list {
		kids[sp.Parent] = append(kids[sp.Parent], sp)
	}
	covered := make([]time.Duration, len(s.list)+1)
	for id, ks := range kids {
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		var until time.Duration
		for _, k := range ks {
			if k.End > until {
				covered[id] += k.End - max(k.Start, until)
				until = k.End
			}
		}
	}
	type key struct{ w, n string }
	agg := map[key]*selfRow{}
	for _, sp := range s.list {
		k := key{sp.Workload, sp.Name}
		r := agg[k]
		if r == nil {
			r = &selfRow{Workload: sp.Workload, Name: sp.Name}
			agg[k] = r
		}
		r.Calls++
		r.Total += sp.End - sp.Start
		r.Self += sp.End - sp.Start - covered[sp.ID]
	}
	rows := make([]selfRow, 0, len(agg))
	for _, r := range agg {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Workload != rows[j].Workload {
			return rows[i].Workload < rows[j].Workload
		}
		if rows[i].Self != rows[j].Self {
			return rows[i].Self > rows[j].Self
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// writeChrome renders the spans as Chrome trace_event JSON: one
// process per workload, one thread per top-level ancestor.
func (s *spans) writeChrome(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	}
	pids := map[string]int{}
	var evs []event
	for _, sp := range s.list {
		pid, ok := pids[sp.Workload]
		if !ok {
			pid = len(pids) + 1
			pids[sp.Workload] = pid
		}
		root := sp
		for root.Parent != 0 {
			root = s.list[root.Parent-1]
		}
		evs = append(evs, event{
			Name: sp.Name, Ph: "X", PID: pid, TID: root.ID,
			TS:   float64(sp.Start) / float64(time.Microsecond),
			Dur:  float64(sp.End-sp.Start) / float64(time.Microsecond),
			Args: map[string]any{"workload": sp.Workload, "id": sp.ID, "parent": sp.Parent},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs})
}
