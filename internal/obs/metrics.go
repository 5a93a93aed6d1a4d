// Package obs is the observability layer of the analysis service: a
// dependency-free metrics registry (atomic counters, gauges and fixed-bucket
// histograms whose hot-path operations perform zero heap allocations) plus
// lightweight per-query distributed tracing (a span tree minted at the
// mediator and propagated through the wire protocol to nodes and halo
// fetches).
//
// The package sits below every subsystem — cache, node, faulttol,
// mediator, wire — and therefore imports only the standard library.
//
// # Metrics
//
// Metrics are registered once at package init time and updated lock-free:
//
//	var cacheHits = obs.Default().Counter("turbdb_cache_hits_total")
//	...
//	cacheHits.Inc() // one atomic add, zero allocations
//
// Counter.Inc/Add, Gauge.Set/Add and Histogram.Observe are annotated
// //turbdb:rowkernel: the static analyzer (cmd/turbdb-vet) proves they stay
// allocation-free, so they are safe to call from the node's per-atom scan
// loop. The text exposition (Registry.WriteText, served at /metrics) is the
// only place that allocates.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is usable;
// obtain registered instances from Registry.Counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
//
//turbdb:rowkernel
func (c *Counter) Inc() {
	c.v.Add(1)
}

// Add adds n (negative deltas are ignored: counters only go up).
//
//turbdb:rowkernel
func (c *Counter) Add(n int64) {
	if n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down (queue depths, breaker states).
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
//
//turbdb:rowkernel
func (g *Gauge) Set(n int64) {
	g.v.Store(n)
}

// Add adjusts the gauge by n.
//
//turbdb:rowkernel
func (g *Gauge) Add(n int64) {
	g.v.Add(n)
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram. Observe records a sample with zero
// heap allocations: one linear scan over the (small, fixed) bucket bounds,
// one atomic add into the bucket, and a CAS loop folding the sample into the
// running sum. Bounds are upper bucket edges in ascending order; samples
// above the last bound land in the implicit +Inf bucket.
type Histogram struct {
	bounds  []float64 // immutable after construction
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomic.Uint64 // float64 bits
}

// newHistogram builds a histogram over bounds (copied; must be ascending).
func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending: %v", bounds))
		}
	}
	return &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
}

// Observe records one sample.
//
//turbdb:rowkernel
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Bounds returns the bucket upper edges (excluding the implicit +Inf).
func (h *Histogram) Bounds() []float64 {
	out := make([]float64, len(h.bounds))
	copy(out, h.bounds)
	return out
}

// BucketCounts returns per-bucket sample counts, the last entry being the
// +Inf bucket.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// DurationBuckets are the default latency bucket edges in seconds: 100 µs to
// ~2 min in roughly 4× steps, matching the dynamic range of the paper's
// per-stage timings (cache lookups in microseconds, cold full-domain scans
// in minutes).
var DurationBuckets = []float64{
	1e-4, 4e-4, 1.6e-3, 6.4e-3, 2.56e-2, 1.024e-1, 4.096e-1, 1.6384, 6.5536, 26.2144, 104.8576,
}

// SizeBuckets are the default size/count bucket edges: 1 to ~10⁶ in decade
// steps (result sizes, atom counts).
var SizeBuckets = []float64{1, 10, 100, 1e3, 1e4, 1e5, 1e6}

// Registry holds named metrics and renders the text exposition. Metric
// lookups are register-or-get and take a lock; hold the returned pointer at
// package init so hot paths never touch the registry.
type Registry struct {
	mu    sync.Mutex
	names []string // registration order; guarded by mu
	types map[string]string
	cs    map[string]*Counter
	gs    map[string]*Gauge
	hs    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		types: make(map[string]string),
		cs:    make(map[string]*Counter),
		gs:    make(map[string]*Gauge),
		hs:    make(map[string]*Histogram),
	}
}

// defaultRegistry is the process-global registry served at /metrics.
var defaultRegistry = NewRegistry()

// Default returns the process-global registry.
func Default() *Registry { return defaultRegistry }

// registerLocked claims name for kind, panicking on a kind clash (a
// programming error: two packages registering the same name as different
// types). The caller holds r.mu.
func (r *Registry) registerLocked(name, kind string) {
	if prev, ok := r.types[name]; ok {
		if prev != kind {
			panic(fmt.Sprintf("obs: metric %q registered as both %s and %s", name, prev, kind))
		}
		return
	}
	r.types[name] = kind
	r.names = append(r.names, name)
}

// Counter returns the counter registered under name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.registerLocked(name, "counter")
	c, ok := r.cs[name]
	if !ok {
		c = &Counter{}
		r.cs[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.registerLocked(name, "gauge")
	g, ok := r.gs[name]
	if !ok {
		g = &Gauge{}
		r.gs[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket bounds if needed (bounds are fixed at first registration).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.registerLocked(name, "histogram")
	h, ok := r.hs[name]
	if !ok {
		h = newHistogram(bounds)
		r.hs[name] = h
	}
	return h
}

// WriteText renders the registry in the Prometheus text exposition format,
// metrics sorted by name. Histograms emit cumulative le-labeled buckets plus
// _sum and _count series.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, len(r.names))
	copy(names, r.names)
	r.mu.Unlock()
	sort.Strings(names)

	for _, name := range names {
		r.mu.Lock()
		kind := r.types[name]
		c, g, h := r.cs[name], r.gs[name], r.hs[name]
		r.mu.Unlock()
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", metricFamily(name), kind); err != nil {
			return err
		}
		var err error
		switch kind {
		case "counter":
			_, err = fmt.Fprintf(w, "%s %d\n", name, c.Value())
		case "gauge":
			_, err = fmt.Fprintf(w, "%s %d\n", name, g.Value())
		case "histogram":
			err = writeHistogramText(w, name, h)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// metricFamily strips a trailing {label="..."} block so labeled series share
// one TYPE line family name.
func metricFamily(name string) string {
	for i, r := range name {
		if r == '{' {
			return name[:i]
		}
	}
	return name
}

func writeHistogramText(w io.Writer, name string, h *Histogram) error {
	counts := h.BucketCounts()
	bounds := h.Bounds()
	var cum int64
	for i, c := range counts {
		cum += c
		le := "+Inf"
		if i < len(bounds) {
			le = fmt.Sprintf("%g", bounds[i])
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum %g\n", name, h.Sum()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
	return err
}
