// Package metrics is a dependency-free, concurrency-safe metrics
// registry for the compile service: counters and fixed-bucket
// histograms, each optionally labelled, and gauges and counters
// sampled from a function at read time, rendered in the Prometheus
// text exposition format (version 0.0.4) and read back by Value.
//
// A registry is always live: the service owns one and records every
// request in it, so its counters are the only record of the service's
// traffic. All methods are safe for concurrent use; hot-path updates
// are single atomic operations, never take the registry lock and
// never allocate (pinned by TestMetricsRequestAllocationFree).
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// kind is a metric family's type.
type kind int

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	case histogramKind:
		return "histogram"
	}
	return "untyped"
}

// DefBuckets are the default latency histogram bounds in seconds,
// spanning sub-millisecond cache hits to multi-second simulated runs.
var DefBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Registry holds metric families and renders them. Create with New;
// the zero value is NOT ready (use New so families is allocated).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{families: map[string]*family{}}
}

// family is one named metric family: a type, a label schema, and a
// set of series keyed by their label values.
type family struct {
	name   string
	help   string
	kind   kind
	labels []string
	bounds []float64 // histogram families only

	mu     sync.Mutex
	series map[string]*series
}

// series is one (family, label values) time series: a counter (c),
// a histogram (h), or a value sampled from fn at read time (every
// gauge, and the counters another subsystem maintains).
type series struct {
	values []string
	c      *Counter
	h      *Histogram
	fn     func() float64
}

// value reads the series: a counter's count, a histogram's number of
// observations, or fn's sample.
func (s *series) value() float64 {
	switch {
	case s.fn != nil:
		return s.fn()
	case s.h != nil:
		var n uint64
		for i := range s.h.counts {
			n += s.h.counts[i].Load()
		}
		return float64(n)
	}
	return float64(s.c.Value())
}

// lookup returns the family for name, creating it on first use and
// panicking on a redefinition with a different type or label schema —
// that is a programming error, not a runtime condition.
func (r *Registry) lookup(name, help string, k kind, labels []string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k, labels: labels, bounds: bounds, series: map[string]*series{}}
		r.families[name] = f
		return f
	}
	if f.kind != k || len(f.labels) != len(labels) {
		panic(fmt.Sprintf("metrics: %s redefined as %s%v (was %s%v)", name, k, labels, f.kind, f.labels))
	}
	for i := range labels {
		if f.labels[i] != labels[i] {
			panic(fmt.Sprintf("metrics: %s redefined with labels %v (was %v)", name, labels, f.labels))
		}
	}
	return f
}

// with returns the series for the given label values, creating it on
// first use via mk.
func (f *family) with(values []string, mk func() *series) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s takes %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := join(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.series[key]
	if s == nil {
		s = mk()
		s.values = append([]string(nil), values...)
		f.series[key] = s
	}
	return s
}

// join builds a series map key from label values. \xff cannot appear
// in UTF-8 text, so the key is unambiguous.
func join(values []string) string {
	out := ""
	for i, v := range values {
		if i > 0 {
			out += "\xff"
		}
		out += v
	}
	return out
}

// --- Counter ---------------------------------------------------------------

// Counter is a monotonically increasing value.
type Counter struct {
	n atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// CounterVec is a labelled counter family.
type CounterVec struct {
	f *family
}

// With returns the counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.with(values, func() *series { return &series{c: new(Counter)} }).c
}

// Counter registers (or returns) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// CounterVec registers (or returns) a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.lookup(name, help, counterKind, labels, nil)}
}

// CounterFunc registers a counter series whose value is read from fn
// at read time — for monotone counters another subsystem already
// maintains (e.g. the summary cache's hit counts). labelPairs
// alternates label names and values; repeated calls with the same
// name and distinct values add series to one family.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labelPairs ...string) {
	r.registerFunc(name, help, counterKind, fn, labelPairs)
}

// --- Sampled series ---------------------------------------------------------

// GaugeFunc registers a gauge series sampled from fn at read time
// (queue depths, pool saturation, goroutine counts). See CounterFunc
// for labelPairs.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labelPairs ...string) {
	r.registerFunc(name, help, gaugeKind, fn, labelPairs)
}

func (r *Registry) registerFunc(name, help string, k kind, fn func() float64, labelPairs []string) {
	if len(labelPairs)%2 != 0 {
		panic(fmt.Sprintf("metrics: %s: odd labelPairs %v", name, labelPairs))
	}
	labels := make([]string, 0, len(labelPairs)/2)
	values := make([]string, 0, len(labelPairs)/2)
	for i := 0; i < len(labelPairs); i += 2 {
		labels = append(labels, labelPairs[i])
		values = append(values, labelPairs[i+1])
	}
	f := r.lookup(name, help, k, labels, nil)
	s := f.with(values, func() *series { return &series{} })
	f.mu.Lock()
	s.fn = fn
	f.mu.Unlock()
}

// --- Histogram -------------------------------------------------------------

// Histogram counts observations into fixed cumulative buckets.
type Histogram struct {
	bounds  []float64 // sorted upper bounds, +Inf implicit
	counts  []atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records v. An observation equal to a bucket's upper bound
// lands in that bucket (le is inclusive); one above every bound lands
// in the implicit +Inf bucket.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// HistogramVec is a labelled histogram family.
type HistogramVec struct {
	f *family
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	f := v.f
	return f.with(values, func() *series { return &series{h: newHistogram(f.bounds)} }).h
}

// Histogram registers (or returns) an unlabelled histogram with the
// given upper bounds (nil: DefBuckets). Bounds must be sorted
// ascending; the +Inf bucket is implicit.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.HistogramVec(name, help, bounds).With()
}

// HistogramVec registers (or returns) a labelled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if bounds == nil {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: %s: bounds not strictly ascending at %g", name, bounds[i]))
		}
	}
	return &HistogramVec{f: r.lookup(name, help, histogramKind, labels, bounds)}
}

// --- Reading ---------------------------------------------------------------

// Value returns the sum over name's series that carry every label pair
// in labelPairs (alternating names and values; a label the family does
// not have matches no series), each read as series.value does. A name
// nothing registered reads 0.
func (r *Registry) Value(name string, labelPairs ...string) float64 {
	if len(labelPairs)%2 != 0 {
		panic(fmt.Sprintf("metrics: %s: odd labelPairs %v", name, labelPairs))
	}
	r.mu.Lock()
	f := r.families[name]
	r.mu.Unlock()
	if f == nil {
		return 0
	}
	var sum float64
	for _, s := range f.snapshot() {
		if f.matches(s, labelPairs) {
			sum += s.value()
		}
	}
	return sum
}

// snapshot returns the family's series; readers sample them outside
// the family lock, since a sampled series may take its owner's locks.
func (f *family) snapshot() []*series {
	f.mu.Lock()
	defer f.mu.Unlock()
	ss := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		ss = append(ss, s)
	}
	return ss
}

// matches reports whether s carries every label pair.
func (f *family) matches(s *series, labelPairs []string) bool {
	for i := 0; i < len(labelPairs); i += 2 {
		j := slices.Index(f.labels, labelPairs[i])
		if j < 0 || s.values[j] != labelPairs[i+1] {
			return false
		}
	}
	return true
}
