package metrics

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// buildFixture populates a registry with one instance of every
// instrument shape the renderer supports, including label values that
// need escaping.
func buildFixture() *Registry {
	r := New()
	inc := func(c *Counter, n int) {
		for ; n > 0; n-- {
			c.Inc()
		}
	}
	inc(r.Counter("zz_last_total", "Sorted last by family name."), 3)
	c := r.CounterVec("fixture_requests_total", "Requests by route and status.", "route", "status")
	inc(c.With("/compile", "200"), 7)
	inc(c.With("/compile", "429"), 1)
	inc(c.With("/run", "200"), 2)
	r.GaugeFunc("fixture_queue_depth", "Requests waiting for a worker.", func() float64 { return 4 })
	r.GaugeFunc("fixture_saturation", "Busy workers over pool size.", func() float64 { return 0.25 })
	r.CounterFunc("fixture_cache_hits_total", "Cache hits by tier.", func() float64 { return 11 }, "tier", "memory")
	r.CounterFunc("fixture_cache_hits_total", "Cache hits by tier.", func() float64 { return 5 }, "tier", "disk")
	esc := r.CounterVec("fixture_escapes_total", `Help with a \ backslash`+"\nand a newline.", "path")
	esc.With(`C:\tmp` + "\n" + `"quoted"`).Inc()
	h := r.Histogram("fixture_latency_seconds", "Latency.", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.02, 0.5, 2} {
		h.Observe(v)
	}
	return r
}

// TestGoldenText pins the full exposition rendering: family sorting,
// series sorting, escaping, and the cumulative histogram lines.
func TestGoldenText(t *testing.T) {
	var buf bytes.Buffer
	if err := buildFixture().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "render.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("rendering drifted from %s (-want +got):\n--- want\n%s\n--- got\n%s", golden, want, buf.Bytes())
	}
	// A second render of the unchanged registry must be byte-identical.
	var again bytes.Buffer
	reg := buildFixture()
	if err := reg.WriteText(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("two renders of identical registries differ")
	}
}

// TestValue reads the fixture back through Value: label subsets sum,
// func-backed series sample, a histogram reads its observation count,
// and escaped label values match as registered.
func TestValue(t *testing.T) {
	r := buildFixture()
	for _, tc := range []struct {
		name  string
		pairs []string
		want  float64
	}{
		{"fixture_requests_total", []string{"route", "/compile", "status", "200"}, 7},
		{"fixture_requests_total", []string{"route", "/compile"}, 8},
		{"fixture_requests_total", nil, 10},
		{"fixture_requests_total", []string{"tier", "disk"}, 0},
		{"fixture_cache_hits_total", []string{"tier", "disk"}, 5},
		{"fixture_cache_hits_total", nil, 16},
		{"fixture_queue_depth", nil, 4},
		{"fixture_escapes_total", []string{"path", `C:\tmp` + "\n" + `"quoted"`}, 1},
		{"fixture_latency_seconds", nil, 5},
		{"zz_last_total", nil, 3},
		{"no_such_family", nil, 0},
	} {
		if got := r.Value(tc.name, tc.pairs...); got != tc.want {
			t.Errorf("Value(%s, %q) = %v, want %v", tc.name, tc.pairs, got, tc.want)
		}
	}
}

// TestHistogramBuckets pins the bucket-boundary semantics: le is
// inclusive, values past the last bound land only in +Inf, and the
// rendered buckets are cumulative.
func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("h_seconds", "", []float64{0.01, 0.1, 1})
	h.Observe(0.01) // exactly on a boundary: le="0.01" bucket
	h.Observe(0.1)  // exactly on a boundary: le="0.1" bucket
	h.Observe(1)    // exactly on the last bound: le="1", not +Inf
	h.Observe(5)    // above every bound: +Inf only
	h.Observe(0)    // below every bound: first bucket

	if got := r.Value("h_seconds"); got != 5 {
		t.Fatalf("observations = %v, want 5", got)
	}
	if got, want := h.Sum(), 0.01+0.1+1+5+0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("Sum = %v, want %v", got, want)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`h_seconds_bucket{le="0.01"} 2`, // 0 and 0.01
		`h_seconds_bucket{le="0.1"} 3`,  // + 0.1
		`h_seconds_bucket{le="1"} 4`,    // + 1 (boundary value stays out of +Inf)
		`h_seconds_bucket{le="+Inf"} 5`, // + 5
		`h_seconds_count 5`,
	} {
		if !strings.Contains(buf.String(), line+"\n") {
			t.Errorf("rendering lacks %q:\n%s", line, buf.String())
		}
	}
}

// TestRegistryConcurrent hammers one registry from 8 goroutines —
// creating series, updating every instrument kind, rendering and
// reading concurrently — and then checks the totals. Run under -race in CI.
func TestRegistryConcurrent(t *testing.T) {
	r := New()
	cv := r.CounterVec("c_total", "", "worker")
	hv := r.HistogramVec("h_seconds", "", []float64{0.5}, "worker")
	shared := r.Counter("shared_total", "")
	r.GaugeFunc("sampled", "", func() float64 { return float64(shared.Value()) })

	const goroutines, iters = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			worker := string(rune('a' + g))
			for i := 0; i < iters; i++ {
				cv.With(worker).Inc()
				hv.With(worker).Observe(float64(i%2) * 0.75)
				shared.Inc()
				if i%500 == 0 {
					if err := r.WriteText(&bytes.Buffer{}); err != nil {
						t.Error(err)
					}
					r.Value("h_seconds", "worker", worker)
				}
			}
		}(g)
	}
	wg.Wait()

	if got, want := shared.Value(), uint64(goroutines*iters); got != want {
		t.Errorf("shared counter = %d, want %d", got, want)
	}
	for _, name := range []string{"c_total", "h_seconds", "sampled"} {
		if got := r.Value(name); got != goroutines*iters {
			t.Errorf("sum %s = %v, want %d", name, got, goroutines*iters)
		}
	}
}

// TestRedefinitionPanics pins that schema drift is a loud programmer
// error, not silent data corruption.
func TestRedefinitionPanics(t *testing.T) {
	r := New()
	r.Counter("x_total", "")
	for _, redef := range []func(){
		func() { r.GaugeFunc("x_total", "", func() float64 { return 0 }) },
		func() { r.CounterVec("x_total", "", "label") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("redefinition did not panic")
				}
			}()
			redef()
		}()
	}
}

// requestSequence is what one service request records: its outcome
// counter, a shared counter and its latency histogram.
func requestSequence(r *Registry) func(v float64) {
	c := r.CounterVec("c_total", "", "outcome")
	h := r.Histogram("h_seconds", "", nil)
	shared := r.Counter("s_total", "")
	return func(v float64) {
		c.With("ok").Inc()
		shared.Inc()
		h.Observe(v)
	}
}

// TestMetricsRequestAllocationFree pins the hot path: recording a
// request in a live registry allocates nothing, the series included.
func TestMetricsRequestAllocationFree(t *testing.T) {
	record := requestSequence(New())
	record(0) // create the series
	if n := testing.AllocsPerRun(1000, func() { record(1e-3) }); n != 0 {
		t.Errorf("one request's instruments allocate %v times, want 0", n)
	}
}

// BenchmarkMetricsEnabled is the time one request's instruments take
// in a live registry.
func BenchmarkMetricsEnabled(b *testing.B) {
	record := requestSequence(New())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		record(float64(i) * 1e-6)
	}
}
