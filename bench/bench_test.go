package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fortd"
	"fortd/internal/machine"
	"fortd/internal/trace"
)

func TestQuartiles(t *testing.T) {
	// expected values are Python's statistics.quantiles(v, n=4)
	cases := []struct {
		v           []float64
		q1, med, q3 float64
	}{
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{50, 10, 40, 20, 30}, 15, 30, 45},
		{[]float64{1, 3}, 0.5, 2, 3.5},
		{[]float64{7}, 7, 7, 7},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.v)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestSummarizeTail(t *testing.T) {
	ramp := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[n-1-i] = float64(i + 1) // descending: summarize must sort
		}
		return v
	}
	if s := summarize(ramp(19)); s.TailP != 0 || s.N != 19 || s.Min != 1 || s.Median != 10 {
		t.Errorf("19 samples: %+v, want no tail percentile, min 1, median 10", s)
	}
	if s := summarize(ramp(100)); s.TailP != 0.9 || s.Tail != 90 {
		t.Errorf("100 samples: tail p%v = %v, want p90 = 90 (ten samples beyond it)", 100*s.TailP, s.Tail)
	}
	if s := summarize(ramp(200)); s.TailP != 0.95 || s.Tail != 190 {
		t.Errorf("200 samples: tail p%v = %v, want p95 = 190", 100*s.TailP, s.Tail)
	}
	if got := percentile(ramp(200), 0.95); got != 190 {
		t.Errorf("percentile(1..200, 0.95) = %v, want 190", got)
	}
}

func TestSelfTimeCoversConcurrentChildrenOnce(t *testing.T) {
	sp := newSpans()
	sp.list = []span{
		{Workload: "w", Name: "parent", ID: 1, Start: 0, End: 100},
		{Workload: "w", Name: "child", ID: 2, Parent: 1, Start: 10, End: 60},
		{Workload: "w", Name: "child", ID: 3, Parent: 1, Start: 40, End: 90}, // overlaps the first
	}
	for _, r := range sp.selfTimes() {
		if r.Name == "parent" && r.Self != 20 {
			t.Errorf("parent self = %v, want 20 (100 minus the 80 its children cover)", r.Self)
		}
		if r.Name == "child" && (r.Calls != 2 || r.Total != 100 || r.Self != 100) {
			t.Errorf("child row = %+v, want 2 calls, total 100, self 100", r)
		}
	}
}

// A hand-driven 4-processor ring with a remap: the replay must
// reproduce the traced run's messages, words and time exactly.
func TestReplayRing(t *testing.T) {
	const p = 4
	tr := trace.New()
	m := machine.New(machine.DefaultConfig(p))
	m.SetTracer(tr)
	for pid := 0; pid < p; pid++ {
		m.Go(pid, func(pr *machine.Proc) {
			for round := 0; round < 3; round++ {
				pr.Compute(100 * (pr.ID() + 1))
				pr.Send((pr.ID()+1)%p, pr.Scratch(8+pr.ID()))
				pr.Recv((pr.ID() + p - 1) % p)
			}
			pr.CountRemap(64, p-1)
			pr.Compute(7)
		})
	}
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	want := m.Stats()
	for pid, ps := range want.PerProc {
		tr.Emit(trace.Event{Kind: trace.KindProcSummary, PID: pid, Dur: ps.Clock})
	}
	got, err := planReplay(tr.Events(), p).run()
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameTraffic(got, want); diff != "" {
		t.Error(diff)
	}
	if want.Messages != 3*p+p*(p-1) {
		t.Errorf("ring sent %d messages, want %d", want.Messages, 3*p+p*(p-1))
	}
}

func TestReplayFig15(t *testing.T) {
	prog, err := fortd.Compile(fortd.Fig15Src(25, 4), fortd.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tr := fortd.NewTrace()
	res, err := fortd.NewRunner(fortd.WithInit(map[string][]float64{"X": fortd.Ramp(100)}), fortd.WithTrace(tr)).Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	got, err := planReplay(tr.Events(), prog.P()).run()
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameTraffic(got, machine.Stats(res.Stats)); diff != "" {
		t.Error(diff)
	}
	if got.Remaps == 0 || got.Messages == 0 {
		t.Errorf("replay moved remaps=%d messages=%d, want both > 0", got.Remaps, got.Messages)
	}
}

// units splits a program text into its procedures.
func units(src string) []string { return strings.SplitAfter(src, "      END\n") }

func TestSessionStream(t *testing.T) {
	sp, err := buildSpec("svc_recompile", fullSizes, 7)
	if err != nil {
		t.Fatal(err)
	}
	base := units(sp.src)
	edits, profiled := 0, 0
	const n = 40
	for i := 0; i < n; i++ {
		a, b := sp.session(7, i), sp.session(7, i)
		if a.src != b.src || a.edited != b.edited || a.profile != b.profile {
			t.Fatalf("session %d differs between two generations from the same seed", i)
		}
		got := units(a.src)
		if len(got) != len(base) {
			t.Fatalf("session %d has %d procedures, base has %d", i, len(got), len(base))
		}
		changed := 0
		for k := range base {
			if got[k] != base[k] {
				changed++
				if !strings.Contains(got[k], "SUBROUTINE") {
					t.Errorf("session %d edited the main program", i)
				}
			}
		}
		if want := map[bool]int{true: 1, false: 0}[a.edited]; changed != want {
			t.Errorf("session %d (edited=%v) changed %d procedures, want %d", i, a.edited, changed, want)
		}
		if a.edited {
			edits++
		}
		if a.profile {
			profiled++
		}
	}
	if edits < n/2 || edits == n {
		t.Errorf("%d of %d sessions are edits, want about three quarters", edits, n)
	}
	if profiled != n/svcProfileEvery {
		t.Errorf("%d of %d sessions profile their run, want every %dth", profiled, n, svcProfileEvery)
	}
	if other := sp.session(8, 0); other.src == sp.session(7, 0).src && sp.session(8, 1).src == sp.session(7, 1).src && sp.session(8, 2).src == sp.session(7, 2).src {
		t.Error("seeds 7 and 8 generate the same first three sessions")
	}
}

// All five workloads at toy sizes: nothing fails, and every declared
// metric is present exactly once with a finite value.
func TestSmoke(t *testing.T) {
	sp := newSpans()
	res, err := run(config{names: workloadNames, sz: smokeSizes, seed: 3, endToEnd: true, layers: true}, sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads ran, want %d", len(res.Workloads), len(workloadNames))
	}
	for _, w := range res.Workloads {
		if w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", w.Name, w.Attempted, w.Failed, w.Failures)
		}
		seen := map[string]int{}
		for _, m := range w.Metrics {
			seen[m.Name]++
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: %s = %v", w.Name, m.Name, m.Value)
			}
		}
		for _, def := range append(append([]metricDef{}, endToEnd...), perLayer...) {
			if seen[def.Name] != 1 {
				t.Errorf("%s: metric %s reported %d times, want once", w.Name, def.Name, seen[def.Name])
			}
		}
		if len(seen) != len(endToEnd)+len(perLayer) {
			t.Errorf("%s: %d metric names, want %d", w.Name, len(seen), len(endToEnd)+len(perLayer))
		}
	}
	var chrome bytes.Buffer
	if err := sp.writeChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	var parsed struct{ TraceEvents []map[string]any }
	if err := json.Unmarshal(chrome.Bytes(), &parsed); err != nil || len(parsed.TraceEvents) == 0 {
		t.Errorf("span export: %d events, err %v", len(parsed.TraceEvents), err)
	}
}

// A wrong result must surface as a failed operation, not pass silently.
func TestWrongArrayIsAFailure(t *testing.T) {
	w, err := setup("dyndist_p256", config{sz: smokeSizes, seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	w.want["X"][3] = 2 // the program writes 1 everywhere
	w.runSample()
	if w.failed != 1 {
		t.Errorf("failed = %d after a run that disagrees with the oracle, want 1", w.failed)
	}
}

func TestCompare(t *testing.T) {
	mk := func(run, virt float64, failed int) results {
		return results{Schema: 1, Workloads: []workloadResult{{
			Name: "dyndist_p256", Attempted: 10, Failed: failed, FailShare: float64(failed) / 10,
			Metrics: []metricValue{
				{Name: "run_s", Unit: "s", Kind: "end_to_end", Value: run},
				{Name: "virt_us", Unit: "sim_us", Kind: "end_to_end", Value: virt},
				{Name: "machine.msgs", Unit: "count", Kind: "per_layer", Value: 100},
			}}}}
	}
	dir := t.TempDir()
	write := func(name string, r results) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", mk(1.0, 500, 0))
	for _, c := range []struct {
		name string
		b    results
		ok   bool
	}{
		{"same", mk(1.0, 500, 0), true},
		{"run within its bound", mk(1.24, 500, 0), true},
		{"run faster", mk(0.5, 500, 0), true},
		{"run beyond its bound", mk(1.26, 500, 0), false},
		{"any virtual-time increase", mk(1.0, 500.1, 0), false},
		{"virtual time lower", mk(1.0, 499, 0), true},
		{"a failed operation", mk(1.0, 500, 1), false},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(&out, base, write("b.json", c.b))
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok {
			t.Errorf("%s: ok = %v, want %v\n%s", c.name, ok, c.ok, out.String())
		}
	}
}

// BENCHMARK.json at the repository root declares what this package
// measures; the two must not drift apart.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloadNames))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" {
			t.Errorf("workload %d is %q (why %q), want %q with a reason", i, w.Name, w.Why, workloadNames[i])
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json declares %d %s metrics, the benchmark has %d", len(got), kind, len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s metric %d is %+v, want %s/%s/%s", kind, i, m, d.Name, d.Unit, d.Better)
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != d.Bound) {
				t.Errorf("%s metric %s: bound %v, want %v (present: %v)", kind, m.Name, m.Bound, d.Bound, bounded)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd, true)
	same("per_layer", decl.PerLayer, perLayer, false)
}
