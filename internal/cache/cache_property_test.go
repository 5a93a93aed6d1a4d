package cache

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/query"
)

// propUniverse is a deterministic synthetic field over box(0,16): every grid
// point has a fixed value, so the correct answer to any (threshold, region)
// query is recomputable. Values are multiples of 0.25, exactly representable
// in float32, so "bit-for-bit" has no rounding edge cases.
type propUniverse struct {
	pts []query.ResultPoint
}

func newPropUniverse() *propUniverse {
	u := &propUniverse{}
	var p grid.Point
	for p.Z = 0; p.Z < 16; p.Z++ {
		for p.Y = 0; p.Y < 16; p.Y++ {
			for p.X = 0; p.X < 16; p.X++ {
				// A value in [0, 64) that varies with position.
				v := float64((p.X*31+p.Y*17+p.Z*7)%256) * 0.25
				u.pts = append(u.pts, query.PointFor(p, v))
			}
		}
	}
	return u
}

// answer recomputes the exact result the engine would produce for a
// threshold query over region.
func (u *propUniverse) answer(k float64, region grid.Box) []query.ResultPoint {
	var out []query.ResultPoint
	for _, p := range u.pts {
		if float64(p.Value) >= k && region.Contains(p.Coords()) {
			out = append(out, p)
		}
	}
	return out
}

func sortPoints(pts []query.ResultPoint) {
	sort.Slice(pts, func(i, j int) bool { return pts[i].Code < pts[j].Code })
}

// samePointsBitwise compares result sets exactly: same locations, and values
// identical at the float32 bit level.
func samePointsBitwise(a, b []query.ResultPoint) error {
	if len(a) != len(b) {
		return fmt.Errorf("length %d != %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Code != b[i].Code {
			return fmt.Errorf("point %d: code %d != %d", i, a[i].Code, b[i].Code)
		}
		if math.Float32bits(a[i].Value) != math.Float32bits(b[i].Value) {
			return fmt.Errorf("point %d: value bits %08x != %08x",
				i, math.Float32bits(a[i].Value), math.Float32bits(b[i].Value))
		}
	}
	return nil
}

// TestPropertyHitEqualsRecompute runs a deterministic randomized workload of
// stores and lookups: every cache hit must equal the recomputed answer
// bit-for-bit. Entries are stored at random thresholds over random regions,
// so hits exercise both threshold-dominance filtering and spatial filtering.
func TestPropertyHitEqualsRecompute(t *testing.T) {
	u := newPropUniverse()
	c := newCache(t, 0)
	rng := rand.New(rand.NewSource(2015))

	randBox := func() grid.Box {
		lo := rng.Intn(12)
		hi := lo + 2 + rng.Intn(16-lo-2)
		return box(lo, hi)
	}
	const steps = 3
	for i := 0; i < 400; i++ {
		step := rng.Intn(steps)
		k := float64(rng.Intn(200)) * 0.25
		region := randBox()
		if rng.Intn(3) == 0 {
			// Store the correct engine result for (k, region).
			if err := c.Store(nil, "d", "f", step, k, region, u.answer(k, region)); err != nil {
				t.Fatalf("store: %v", err)
			}
			continue
		}
		got, ok, err := c.Lookup(nil, "d", "f", step, k, region)
		if err != nil {
			t.Fatalf("lookup: %v", err)
		}
		if !ok {
			continue
		}
		want := u.answer(k, region)
		sortPoints(got)
		sortPoints(want)
		if err := samePointsBitwise(got, want); err != nil {
			t.Fatalf("hit differs from recompute for k=%g region=%v step=%d: %v",
				k, region, step, err)
		}
	}
	s := c.Stats()
	if s.Hits == 0 {
		t.Fatal("workload produced no cache hits; property vacuous")
	}
	if s.Misses == 0 {
		t.Fatal("workload produced no misses; thresholds never varied?")
	}
}

// TestPropertyConcurrentWithEvictions runs the same property from many
// goroutines against a capacity-limited cache, so lookups race with inserts
// AND evictions. Under -race this is the cache's data-race certification;
// the bit-for-bit check proves eviction churn never corrupts a hit.
func TestPropertyConcurrentWithEvictions(t *testing.T) {
	u := newPropUniverse()
	// Room for only a handful of entries (the largest single entry — all
	// 4096 points — is ~70 KiB): stores evict constantly.
	c := newCache(t, 128*1024)
	const workers = 8
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		rng := rand.New(rand.NewSource(int64(w)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				step := rng.Intn(2)
				k := float64(rng.Intn(200)) * 0.25
				lo := rng.Intn(12)
				region := box(lo, lo+2+rng.Intn(16-lo-2))
				if rng.Intn(2) == 0 {
					err := c.Store(nil, "d", "f", step, k, region, u.answer(k, region))
					if err != nil && !errors.Is(err, ErrEntryTooLarge) {
						errCh <- fmt.Errorf("store: %w", err)
						return
					}
					continue
				}
				got, ok, err := c.Lookup(nil, "d", "f", step, k, region)
				if err != nil {
					errCh <- fmt.Errorf("lookup: %w", err)
					return
				}
				if !ok {
					continue
				}
				want := u.answer(k, region)
				sortPoints(got)
				sortPoints(want)
				if err := samePointsBitwise(got, want); err != nil {
					errCh <- fmt.Errorf("hit differs from recompute (k=%g region=%v): %w", k, region, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	s := c.Stats()
	if s.Evictions == 0 {
		t.Fatalf("no evictions under a 64 KiB capacity (stats %+v); the race surface was not exercised", s)
	}
	if s.Hits == 0 {
		t.Fatalf("no hits during the concurrent workload (stats %+v)", s)
	}
}

// TestPropertyHitIsOrderedRead pins what a hit returns and in which order.
// Entries span more than eight cacheData chunks and are stored in code order,
// as a node stores them. Every hit must equal the stored points filtered by
// value ≥ k and by q, in stored order — compared unsorted, so reading the
// chunks out of sequence fails it — and a lookup of exactly the stored region
// must equal the per-point containment filter.
func TestPropertyHitIsOrderedRead(t *testing.T) {
	c := newCache(t, 0)
	rng := rand.New(rand.NewSource(30))
	for step := 0; step < 3; step++ {
		lo := grid.Point{X: rng.Intn(8), Y: rng.Intn(8), Z: rng.Intn(8)}
		region := grid.Box{Lo: lo, Hi: lo.Add(36+rng.Intn(5), 36+rng.Intn(5), 36+rng.Intn(5))}
		k0 := float64(rng.Intn(8)) * 0.25
		var stored []query.ResultPoint
		var p grid.Point
		for p.Z = region.Lo.Z; p.Z < region.Hi.Z; p.Z++ {
			for p.Y = region.Lo.Y; p.Y < region.Hi.Y; p.Y++ {
				for p.X = region.Lo.X; p.X < region.Hi.X; p.X++ {
					if v := float64(rng.Intn(256)) * 0.25; v >= k0 {
						stored = append(stored, query.PointFor(p, v))
					}
				}
			}
		}
		sortPoints(stored)
		if len(stored) <= 8*chunkPoints {
			t.Fatalf("step %d: entry of %d points spans ≤ 8 chunks", step, len(stored))
		}
		if err := c.Store(nil, "d", "f", step, k0, region, stored); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			k := k0 + float64(rng.Intn(64))*0.25
			q := region
			if i%4 != 0 {
				q = randSubBox(rng, region)
			}
			got, ok, err := c.Lookup(nil, "d", "f", step, k, q)
			if err != nil || !ok {
				t.Fatalf("step %d: lookup k=%g q=%v: ok=%v err=%v", step, k, q, ok, err)
			}
			var want []query.ResultPoint
			for _, pt := range stored {
				if float64(pt.Value) >= k && q.Contains(pt.Coords()) {
					want = append(want, pt)
				}
			}
			if err := samePointsBitwise(got, want); err != nil {
				t.Fatalf("step %d: hit k=%g q=%v (region %v) is not the stored points filtered in order: %v",
					step, k, q, region, err)
			}
		}
	}
}

// randSubBox returns a non-empty box inside region other than region
// itself, so some of region's points lie outside it.
func randSubBox(rng *rand.Rand, region grid.Box) grid.Box {
	span := func(lo, hi int) (int, int) {
		a := lo + rng.Intn(hi-lo)
		return a, a + 1 + rng.Intn(hi-a)
	}
	for {
		var b grid.Box
		b.Lo.X, b.Hi.X = span(region.Lo.X, region.Hi.X)
		b.Lo.Y, b.Hi.Y = span(region.Lo.Y, region.Hi.Y)
		b.Lo.Z, b.Hi.Z = span(region.Lo.Z, region.Hi.Z)
		if b != region {
			return b
		}
	}
}
