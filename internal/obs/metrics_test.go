package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}
	c.Add(-7) // counters only go up
	if got := c.Value(); got != 42 {
		t.Fatalf("Value after negative Add = %d, want 42", got)
	}
}

func TestGaugeBasics(t *testing.T) {
	var g Gauge
	g.Set(5)
	g.Add(-2)
	if got := g.Value(); got != 3 {
		t.Fatalf("Value = %d, want 3", got)
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 2, 10, 99, 100, 1e6} {
		h.Observe(v)
	}
	// Bounds are inclusive upper edges: 0.5 and 1 → le=1; 2 and 10 → le=10;
	// 99 and 100 → le=100; 1e6 → +Inf.
	want := []int64{2, 2, 2, 1}
	got := h.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("BucketCounts len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 7 {
		t.Fatalf("Count = %d, want 7", h.Count())
	}
	if wantSum := 0.5 + 1 + 2 + 10 + 99 + 100 + 1e6; h.Sum() != wantSum {
		t.Fatalf("Sum = %g, want %g", h.Sum(), wantSum)
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-ascending bounds")
		}
	}()
	newHistogram([]float64{1, 1})
}

func TestRegistryRegisterOrGet(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("Counter not idempotent")
	}
	if r.Gauge("b") != r.Gauge("b") {
		t.Fatal("Gauge not idempotent")
	}
	if r.Histogram("c", SizeBuckets) != r.Histogram("c", DurationBuckets) {
		t.Fatal("Histogram not idempotent (bounds fixed at first registration)")
	}
}

func TestRegistryKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic registering x as gauge after counter")
		}
	}()
	r.Gauge("x")
}

func TestWriteTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("t_hits_total").Add(3)
	r.Gauge(`t_state{node="1"}`).Set(2)
	h := r.Histogram("t_lat", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(10)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE t_hits_total counter\n",
		"t_hits_total 3\n",
		"# TYPE t_state gauge\n", // family name: label block stripped
		`t_state{node="1"} 2` + "\n",
		"# TYPE t_lat histogram\n",
		`t_lat_bucket{le="0.1"} 1` + "\n",
		`t_lat_bucket{le="1"} 2` + "\n", // cumulative
		`t_lat_bucket{le="+Inf"} 3` + "\n",
		"t_lat_sum 10.55\n",
		"t_lat_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText output missing %q:\n%s", want, out)
		}
	}
}

// TestConcurrentUpdates hammers one counter and one histogram from many
// goroutines; run under -race this doubles as the data-race check, and the
// totals prove no update is lost.
func TestConcurrentUpdates(t *testing.T) {
	const workers, per = 8, 10000
	var c Counter
	h := newHistogram(DurationBuckets)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*per)
	}
	if want := float64(workers*per) * 0.001; math.Abs(h.Sum()-want) > 1e-6 {
		t.Fatalf("histogram sum = %g, want ≈ %g", h.Sum(), want)
	}
}

// TestHotPathZeroAllocs pins the zero-allocation contract the
// //turbdb:rowkernel annotations promise: the node's per-atom scan loop may
// call these without heap traffic.
func TestHotPathZeroAllocs(t *testing.T) {
	var c Counter
	var g Gauge
	h := newHistogram(DurationBuckets)
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { c.Add(2) }); n != 0 {
		t.Errorf("Counter.Add allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(1) }); n != 0 {
		t.Errorf("Gauge.Set allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.003) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v/op, want 0", n)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := newHistogram(DurationBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.0042)
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	h := newHistogram(DurationBuckets)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(0.0042)
		}
	})
}
