package cache

import (
	"sync"
	"testing"
	"time"

	"github.com/turbdb/turbdb/internal/diskmodel"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sim"
)

func newCache(t testing.TB, capacity int64) *Cache {
	t.Helper()
	c, err := New(Config{CapacityBytes: capacity})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func box(lo, hi int) grid.Box {
	return grid.Box{Lo: grid.Point{X: lo, Y: lo, Z: lo}, Hi: grid.Point{X: hi, Y: hi, Z: hi}}
}

func pointsIn(b grid.Box, base float64, n int) []query.ResultPoint {
	var pts []query.ResultPoint
	var p grid.Point
	for p.Z = b.Lo.Z; p.Z < b.Hi.Z && len(pts) < n; p.Z++ {
		for p.Y = b.Lo.Y; p.Y < b.Hi.Y && len(pts) < n; p.Y++ {
			for p.X = b.Lo.X; p.X < b.Hi.X && len(pts) < n; p.X++ {
				pts = append(pts, query.PointFor(p, base+float64(len(pts))))
			}
		}
	}
	return pts
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{CapacityBytes: -1}); err == nil {
		t.Error("accepted negative capacity")
	}
}

func TestMissOnEmptyCache(t *testing.T) {
	c := newCache(t, 0)
	_, ok, err := c.Lookup(nil, "mhd", "vorticity", 0, 5, box(0, 8))
	if err != nil || ok {
		t.Fatalf("empty cache lookup: ok=%v err=%v", ok, err)
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestStoreAndHit(t *testing.T) {
	c := newCache(t, 0)
	region := box(0, 16)
	pts := pointsIn(region, 10, 100)
	if err := c.Store(nil, "mhd", "vorticity", 3, 10, region, pts); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Lookup(nil, "mhd", "vorticity", 3, 10, region)
	if err != nil || !ok {
		t.Fatalf("lookup after store: ok=%v err=%v", ok, err)
	}
	if len(got) != 100 {
		t.Errorf("got %d points, want 100", len(got))
	}
	if s := c.Stats(); s.Hits != 1 || s.Stores != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestThresholdDominance(t *testing.T) {
	c := newCache(t, 0)
	region := box(0, 16)
	// values 10..109 cached at threshold 10
	pts := pointsIn(region, 10, 100)
	if err := c.Store(nil, "d", "f", 0, 10, region, pts); err != nil {
		t.Fatal(err)
	}
	// higher threshold → hit, filtered to values ≥ 50
	got, ok, _ := c.Lookup(nil, "d", "f", 0, 50, region)
	if !ok {
		t.Fatal("higher-threshold query missed")
	}
	want := 0
	for _, p := range pts {
		if p.Value >= 50 {
			want++
		}
	}
	if len(got) != want {
		t.Errorf("filtered to %d points, want %d", len(got), want)
	}
	for _, p := range got {
		if p.Value < 50 {
			t.Fatalf("returned under-threshold point %v", p)
		}
	}
	// lower threshold → miss (cached entry is incomplete for it)
	if _, ok, _ := c.Lookup(nil, "d", "f", 0, 5, region); ok {
		t.Error("lower-threshold query hit a dominated entry")
	}
}

func TestRegionContainment(t *testing.T) {
	c := newCache(t, 0)
	region := box(0, 8)
	pts := pointsIn(region, 5, 50)
	if err := c.Store(nil, "d", "f", 0, 5, region, pts); err != nil {
		t.Fatal(err)
	}
	// sub-box → hit, spatially filtered
	sub := box(0, 4)
	got, ok, _ := c.Lookup(nil, "d", "f", 0, 5, sub)
	if !ok {
		t.Fatal("sub-region query missed")
	}
	for _, p := range got {
		if !sub.Contains(p.Coords()) {
			t.Fatalf("point %v outside sub-box", p.Coords())
		}
	}
	// super-box → miss
	if _, ok, _ := c.Lookup(nil, "d", "f", 0, 5, box(0, 16)); ok {
		t.Error("super-region query hit")
	}
}

func TestKeyIsolation(t *testing.T) {
	c := newCache(t, 0)
	region := box(0, 8)
	if err := c.Store(nil, "d", "f", 0, 5, region, pointsIn(region, 5, 10)); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		ds, f string
		step  int
	}{
		{"other", "f", 0},
		{"d", "other", 0},
		{"d", "f", 1},
	}
	for _, cs := range cases {
		if _, ok, _ := c.Lookup(nil, cs.ds, cs.f, cs.step, 5, region); ok {
			t.Errorf("lookup(%q,%q,%d) hit wrong entry", cs.ds, cs.f, cs.step)
		}
	}
}

func TestStoreReplacesSameKeyRegion(t *testing.T) {
	c := newCache(t, 0)
	region := box(0, 8)
	if err := c.Store(nil, "d", "f", 0, 50, region, pointsIn(region, 50, 10)); err != nil {
		t.Fatal(err)
	}
	// re-evaluation at a lower threshold replaces the entry
	if err := c.Store(nil, "d", "f", 0, 5, region, pointsIn(region, 5, 100)); err != nil {
		t.Fatal(err)
	}
	entries := c.Entries()
	if len(entries) != 1 {
		t.Fatalf("expected 1 entry after replace, got %d", len(entries))
	}
	if entries[0].Threshold != 5 || entries[0].Points != 100 {
		t.Errorf("entry = %+v", entries[0])
	}
	// the lower threshold is now answerable
	if _, ok, _ := c.Lookup(nil, "d", "f", 0, 5, region); !ok {
		t.Error("replaced entry not hit")
	}
}

func TestLRUEviction(t *testing.T) {
	// capacity for ~2 small entries
	entry := entrySize(10)
	c := newCache(t, 2*entry+10)
	region := box(0, 8)
	if err := c.Store(nil, "d", "f", 0, 5, region, pointsIn(region, 5, 10)); err != nil {
		t.Fatal(err)
	}
	if err := c.Store(nil, "d", "f", 1, 5, region, pointsIn(region, 5, 10)); err != nil {
		t.Fatal(err)
	}
	// touch step 0 so step 1 becomes LRU
	if _, ok, _ := c.Lookup(nil, "d", "f", 0, 5, region); !ok {
		t.Fatal("warm lookup missed")
	}
	// storing a third entry must evict step 1
	if err := c.Store(nil, "d", "f", 2, 5, region, pointsIn(region, 5, 10)); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.Lookup(nil, "d", "f", 1, 5, region); ok {
		t.Error("LRU entry survived eviction")
	}
	if _, ok, _ := c.Lookup(nil, "d", "f", 0, 5, region); !ok {
		t.Error("recently used entry evicted")
	}
	if s := c.Stats(); s.Evictions < 1 {
		t.Errorf("stats = %+v", s)
	}
	if c.SizeBytes() > 2*entry+10 {
		t.Errorf("cache size %d exceeds capacity", c.SizeBytes())
	}
}

func TestOversizeEntryRejected(t *testing.T) {
	c := newCache(t, 100)
	region := box(0, 8)
	if err := c.Store(nil, "d", "f", 0, 5, region, pointsIn(region, 5, 100)); err == nil {
		t.Error("oversized entry accepted")
	}
}

func TestDrop(t *testing.T) {
	c := newCache(t, 0)
	region := box(0, 8)
	_ = c.Store(nil, "d", "f", 0, 5, region, pointsIn(region, 5, 10))
	_ = c.Store(nil, "d", "f", 1, 5, region, pointsIn(region, 5, 10))
	c.Drop("d", "f", 0)
	if _, ok, _ := c.Lookup(nil, "d", "f", 0, 5, region); ok {
		t.Error("dropped entry still hit")
	}
	if _, ok, _ := c.Lookup(nil, "d", "f", 1, 5, region); !ok {
		t.Error("unrelated entry dropped")
	}
}

// Drop covers aggregates as well as threshold entries, under the key and
// under its scan-routed "@" variants, and nothing else.
func TestDropCoversAggregatesAndScanKeys(t *testing.T) {
	c, err := New(Config{AggEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	region := box(0, 8)
	keys := []struct {
		field   string
		step    int
		dropped bool
	}{{"f", 0, true}, {"f@0-8", 0, true}, {"f", 1, false}, {"f@0-8", 1, false}, {"fx", 0, false}}
	for _, k := range keys {
		if err := c.Store(nil, "d", k.field, k.step, 5, region, pointsIn(region, 5, 10)); err != nil {
			t.Fatal(err)
		}
		c.StoreAgg(nil, "d", k.field, k.step, "pdf", []int64{1, 2})
	}
	c.Drop("d", "f", 0)
	for _, k := range keys {
		if _, ok, _ := c.Lookup(nil, "d", k.field, k.step, 5, region); ok == k.dropped {
			t.Errorf("%s step %d: threshold entry resident = %v", k.field, k.step, ok)
		}
		if _, ok := c.LookupAgg(nil, "d", k.field, k.step, "pdf"); ok == k.dropped {
			t.Errorf("%s step %d: aggregate resident = %v", k.field, k.step, ok)
		}
	}
}

func TestChunkingLargeEntry(t *testing.T) {
	c := newCache(t, 0)
	region := box(0, 32)
	n := 2*4096 + 17
	pts := pointsIn(region, 1, n)
	if len(pts) != n {
		t.Fatalf("test setup: built %d points", len(pts))
	}
	if err := c.Store(nil, "d", "f", 0, 1, region, pts); err != nil {
		t.Fatal(err)
	}
	got, ok, _ := c.Lookup(nil, "d", "f", 0, 1, region)
	if !ok || len(got) != n {
		t.Errorf("round trip %d points, want %d (ok=%v)", len(got), n, ok)
	}
}

func TestEmptyResultCached(t *testing.T) {
	// A query with zero qualifying points is still worth caching: the empty
	// answer is reusable for any higher threshold.
	c := newCache(t, 0)
	region := box(0, 8)
	if err := c.Store(nil, "d", "f", 0, 99, region, nil); err != nil {
		t.Fatal(err)
	}
	got, ok, _ := c.Lookup(nil, "d", "f", 0, 100, region)
	if !ok {
		t.Fatal("empty entry missed")
	}
	if len(got) != 0 {
		t.Errorf("empty entry returned %d points", len(got))
	}
}

func TestConcurrentStoresAndLookups(t *testing.T) {
	c := newCache(t, 0)
	region := box(0, 8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				step := (w*20 + i) % 5
				if err := c.Store(nil, "d", "f", step, 5, region, pointsIn(region, 5, 10)); err != nil {
					t.Errorf("store: %v", err)
					return
				}
				if _, _, err := c.Lookup(nil, "d", "f", step, 7, region); err != nil {
					t.Errorf("lookup: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if len(c.Entries()) != 5 {
		t.Errorf("expected 5 entries, got %d", len(c.Entries()))
	}
}

// TestHitReadsTheEntryItFound runs two simulated queries against one cache
// with an SSD model: a hit whose read of a large entry takes virtual time,
// and a store that replaces that entry while the read is under way. The
// store must finish inside the read, since the cache's lock is never held
// across an SSD charge (a lock held there hangs the simulation, which the
// timeout reports). The hit must return the entry it found, not the
// replacement, and a lookup after the store must return the replacement.
func TestHitReadsTheEntryItFound(t *testing.T) {
	k := sim.New()
	ssd, err := diskmodel.New(k, diskmodel.SSD())
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{SSD: ssd})
	if err != nil {
		t.Fatal(err)
	}
	region := box(0, 32)
	found, replacement := pointsIn(region, 10, 20000), pointsIn(region, 50, 100)
	if err := c.Store(nil, "d", "f", 0, 10, region, found); err != nil {
		t.Fatal(err)
	}
	var hit, after []query.ResultPoint
	var readDone, storeDone time.Duration
	k.Go("reader", func(p *sim.Proc) {
		hit, _, _ = c.Lookup(p, "d", "f", 0, 10, region)
		readDone = k.Now()
	})
	k.Go("writer", func(p *sim.Proc) {
		p.Delay(100 * time.Microsecond)
		if err := c.Store(p, "d", "f", 0, 10, region, replacement); err != nil {
			t.Error(err)
		}
		storeDone = k.Now()
		after, _, _ = c.Lookup(p, "d", "f", 0, 10, region)
	})
	done := make(chan error, 1)
	go func() { done <- k.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("simulation hung: the cache lock is held across an SSD charge")
	}
	if storeDone >= readDone {
		t.Errorf("store finished at %v, not inside the hit's read (done at %v)", storeDone, readDone)
	}
	if err := samePointsBitwise(hit, found); err != nil {
		t.Errorf("hit during the replacement: %v", err)
	}
	if err := samePointsBitwise(after, replacement); err != nil {
		t.Errorf("hit after the replacement: %v", err)
	}
	if s := c.Stats(); s.Hits != 2 || s.Stores != 2 || s.Evictions != 0 {
		t.Errorf("stats = %+v", s)
	}
}

// BenchmarkLookupHit reads a 26 214-point entry, stored in code order as a
// node stores it, over exactly its region.
func BenchmarkLookupHit(b *testing.B) {
	c := newCache(b, 0)
	region := box(0, 32)
	pts := pointsIn(region, 5, 26214)
	sortPoints(pts)
	if err := c.Store(nil, "d", "f", 0, 5, region, pts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, _ := c.Lookup(nil, "d", "f", 0, 50, region); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkStore(b *testing.B) {
	c := newCache(b, 0)
	region := box(0, 32)
	pts := pointsIn(region, 5, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Store(nil, "d", "f", i%8, 5, region, pts); err != nil {
			b.Fatal(err)
		}
	}
}

func TestAggCacheDisabledByDefault(t *testing.T) {
	c := newCache(t, 0)
	c.StoreAgg(nil, "d", "f", 0, "k", []int64{1, 2})
	if _, ok := c.LookupAgg(nil, "d", "f", 0, "k"); ok {
		t.Error("aggregate cache served entries while disabled")
	}
}

func TestAggCacheRoundTrip(t *testing.T) {
	c, err := New(Config{AggEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	counts := []int64{10, 20, 30}
	c.StoreAgg(nil, "d", "f", 2, "pdf/x", counts)
	got, ok := c.LookupAgg(nil, "d", "f", 2, "pdf/x")
	if !ok {
		t.Fatal("lookup missed")
	}
	for i := range counts {
		if got[i] != counts[i] {
			t.Fatalf("counts differ: %v vs %v", got, counts)
		}
	}
	// exact-key semantics: different key, step or field misses
	if _, ok := c.LookupAgg(nil, "d", "f", 2, "pdf/y"); ok {
		t.Error("different key hit")
	}
	if _, ok := c.LookupAgg(nil, "d", "f", 3, "pdf/x"); ok {
		t.Error("different step hit")
	}
	if _, ok := c.LookupAgg(nil, "d", "g", 2, "pdf/x"); ok {
		t.Error("different field hit")
	}
	// replacement under the same key
	c.StoreAgg(nil, "d", "f", 2, "pdf/x", []int64{7})
	got, ok = c.LookupAgg(nil, "d", "f", 2, "pdf/x")
	if !ok || len(got) != 1 || got[0] != 7 {
		t.Errorf("replaced entry = %v", got)
	}
	// returned slice is a copy: mutating it must not corrupt the cache
	got[0] = 99
	again, _ := c.LookupAgg(nil, "d", "f", 2, "pdf/x")
	if again[0] != 7 {
		t.Error("cache entry aliased caller slice")
	}
}

func TestAggCacheLRUEviction(t *testing.T) {
	c, err := New(Config{AggEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.StoreAgg(nil, "d", "f", 0, "a", []int64{1})
	c.StoreAgg(nil, "d", "f", 1, "b", []int64{2})
	// touch "a" so "b" is LRU
	if _, ok := c.LookupAgg(nil, "d", "f", 0, "a"); !ok {
		t.Fatal("warm lookup missed")
	}
	c.StoreAgg(nil, "d", "f", 2, "c", []int64{3})
	if _, ok := c.LookupAgg(nil, "d", "f", 1, "b"); ok {
		t.Error("LRU aggregate survived")
	}
	if _, ok := c.LookupAgg(nil, "d", "f", 0, "a"); !ok {
		t.Error("recently used aggregate evicted")
	}
}
