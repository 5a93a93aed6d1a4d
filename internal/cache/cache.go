// Package cache implements the application-aware semantic cache for
// threshold-query results — the central contribution of the paper's
// evaluation strategy.
//
// Each database node has a local cache. The paper holds it in two tables
// (Sec. 4):
//
//	cacheInfo  — metadata per cached entry: dataset, field, time-step, the
//	             start and end coordinates of the spatial region examined,
//	             and the threshold value used;
//	cacheData  — the locations (Morton z-index) and norms of every grid
//	             point above that threshold, foreign-key constrained to the
//	             cacheInfo ordinal.
//
// Here an entry is both at once: its cacheInfo row (InfoRow) and its points.
//
// A subsequent query is answered from the cache when it lies within a
// cached region and specifies the same or a higher threshold
// (threshold-dominance + region-containment — the semantic-caching match
// rule). Hits skip both the raw-data I/O and the derived-field computation.
//
// A hit is an ordered read: Lookup returns an entry's points in the order
// Store was given them (the node stores them in Morton order), so a hit
// needs no sort. Store's precondition is that every point lies inside the
// stored region; a lookup of exactly that region then tests only values.
//
// The entries live under one mutex, held to find, insert, evict, drop or
// touch an entry and never while points are copied or the simulated SSD is
// charged. An entry's points are immutable once stored: Store copies them
// in, and replacement, eviction and Drop remove the entry, never change its
// points. So a hit filters its entry after unlocking, parallel queries wait
// on each other only for a walk of the entry list, and no query sees a
// half-written entry — what the paper gets from running the cache's reads
// and writes in snapshot-isolation transactions.
//
// Entries are evicted least-recently-used across all quantities when the
// configured SSD capacity is exceeded. Aggregates (agg.go) are evicted the
// same way within their own constant budget. Cached bytes are charged to the
// node's SSD device model when running inside the cluster simulation.
package cache

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"github.com/turbdb/turbdb/internal/diskmodel"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/obs"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sim"
)

// Process-wide cache metrics (per-instance counters live in Stats). A
// partial overlap is a miss that found an entry for the right key and a
// dominating threshold whose region merely intersects the query — the
// signal that a region-splitting cache policy (paper Sec. 6) would have
// converted it into a hit.
var (
	mHits      = obs.Default().Counter("turbdb_cache_hits_total")
	mMisses    = obs.Default().Counter("turbdb_cache_misses_total")
	mPartial   = obs.Default().Counter("turbdb_cache_partial_overlap_total")
	mStores    = obs.Default().Counter("turbdb_cache_stores_total")
	mEvictions = obs.Default().Counter("turbdb_cache_evictions_total")
	mHitPoints = obs.Default().Histogram("turbdb_cache_hit_points", obs.SizeBuckets)
)

// ErrEntryTooLarge reports that a result set cannot fit in the cache at
// all; callers treat caching as best-effort and serve the query uncached.
var ErrEntryTooLarge = errors.New("cache: entry exceeds cache capacity")

// PointDiskSize is the modeled on-SSD footprint of one cached point,
// including index space and database overhead. The paper sizes the cache at
// ~40 MB per 10⁶-point time-step → 40 bytes/point.
const PointDiskSize = 40

// infoDiskSize is the modeled on-SSD footprint of a cacheInfo row.
const infoDiskSize = 512

// InfoRow is the schema of the cacheInfo table: one cached entry's
// metadata.
type InfoRow struct {
	Dataset   string
	Field     string
	Timestep  int
	Region    grid.Box
	Threshold float64
	Points    int
	Bytes     int64  // modeled SSD footprint of this entry (info + data)
	LastUsed  uint64 // LRU clock value of the most recent touch
}

// entry is one cached threshold result. Only LastUsed changes after Store,
// and only under Cache.mu; pts is never written again.
type entry struct {
	InfoRow
	pts []query.ResultPoint
}

// Config configures a node's cache.
type Config struct {
	// CapacityBytes bounds the modeled SSD footprint of the threshold
	// entries; 0 means unlimited. The paper's nodes have ~200 GB of SSD per
	// node. Aggregates (PDF histograms) are always cached, under a constant
	// budget of their own (aggBudget) outside this capacity.
	CapacityBytes int64
	// SSD enables simulated I/O charging for calls given a sim.Proc; nil
	// for real mode.
	SSD *diskmodel.Device
}

// Stats are cumulative cache counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Stores    int64
	Evictions int64
}

// Cache is one node's application-aware query-result cache. Safe for
// concurrent use.
type Cache struct {
	capacity int64
	ssd      *diskmodel.Device

	mu      sync.Mutex
	entries []*entry    // guarded by mu
	aggs    []*aggEntry // guarded by mu
	clock   uint64      // guarded by mu; the LRU clock of entries and aggs
	stats   Stats       // guarded by mu
}

// New creates an empty cache.
func New(cfg Config) (*Cache, error) {
	if cfg.CapacityBytes < 0 {
		return nil, fmt.Errorf("cache: negative capacity")
	}
	return &Cache{capacity: cfg.CapacityBytes, ssd: cfg.SSD}, nil
}

// Stats returns cumulative counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// chargeRead models an SSD clustered-index read of n bytes.
func (c *Cache) chargeRead(p *sim.Proc, n int64) {
	if p != nil && c.ssd != nil {
		c.ssd.Read(p, 0, int(n))
	}
}

// chargeWrite models an SSD write of n bytes.
func (c *Cache) chargeWrite(p *sim.Proc, n int64) {
	if p != nil && c.ssd != nil {
		c.ssd.Write(p, 1, int(n))
	}
}

// entrySize models the SSD footprint of an entry with n points.
func entrySize(n int) int64 { return infoDiskSize + int64(n)*PointDiskSize }

// touch makes the entry whose LRU clock is used the most recently used one
// and counts the hit that touched it. An entry evicted since its lookup is
// touched harmlessly: nothing reads its clock any more.
func (c *Cache) touch(used *uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock++
	*used = c.clock
	c.stats.Hits++
}

// Lookup implements the cache-interrogation half of Algorithm 1: find a
// cacheInfo row for (dataset, field, timestep) whose stored threshold is ≤ k
// and whose region contains q; on a hit, read its points and return those
// with value ≥ k inside q, in the order they were stored. ok reports whether
// the query was answerable from the cache. The error is always nil.
func (c *Cache) Lookup(p *sim.Proc, dataset, fieldName string, step int, k float64, q grid.Box) (pts []query.ResultPoint, ok bool, err error) {
	// SELECT * FROM cacheInfo WHERE dataset = d AND field = f AND timestep = t
	hit, partial := c.find(dataset, fieldName, step, k, q)
	c.chargeRead(p, infoDiskSize)
	if hit == nil {
		mMisses.Inc()
		if partial {
			mPartial.Inc()
		}
		return nil, false, nil
	}

	// SELECT * FROM cacheData WHERE cacheInfoOrdinal = ordinal
	c.chargeRead(p, int64(hit.Points)*PointDiskSize)
	// Every stored point lies inside the stored region (Store's
	// precondition), so a lookup of exactly that region skips the per-point
	// containment test. The value test stays: a float32 value can round
	// below a k the stored threshold dominates.
	whole := q == hit.Region
	pts = make([]query.ResultPoint, 0, hit.Points)
	for _, pt := range hit.pts {
		if float64(pt.Value) >= k && (whole || q.Contains(pt.Coords())) {
			pts = append(pts, pt)
		}
	}
	mHits.Inc()
	mHitPoints.Observe(float64(len(pts)))
	c.touch(&hit.LastUsed)
	return pts, true, nil
}

// find returns an entry for (dataset, field, step) that answers threshold k
// over q, or nil and whether an entry with a dominating threshold overlapped
// q; a miss is counted here.
func (c *Cache) find(dataset, fieldName string, step int, k float64, q grid.Box) (hit *entry, partial bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		if e.Dataset != dataset || e.Field != fieldName || e.Timestep != step || k < e.Threshold {
			continue
		}
		if e.Region.ContainsBox(q) {
			return e, false
		}
		partial = partial || !e.Region.Intersect(q).Empty()
	}
	c.stats.Misses++
	return nil, partial
}

// Store implements the cache-update half of Algorithm 1: record the result
// of a threshold query (threshold k over region) for (dataset, field,
// timestep), replacing any previous entry for the same key and region, and
// evicting least-recently-used entries if capacity would be exceeded.
//
// Every point of pts must lie inside region, as the points of a scan
// clipped to region do: Lookup returns them unfiltered by coordinates when
// it is asked for exactly region. Lookup returns them in the order given.
// The only error is ErrEntryTooLarge.
func (c *Cache) Store(p *sim.Proc, dataset, fieldName string, step int, k float64, region grid.Box, pts []query.ResultPoint) error {
	size := entrySize(len(pts))
	if c.capacity > 0 && size > c.capacity {
		return fmt.Errorf("%w: %d bytes, capacity %d", ErrEntryTooLarge, size, c.capacity)
	}
	e := &entry{
		InfoRow: InfoRow{
			Dataset: dataset, Field: fieldName, Timestep: step,
			Region: region, Threshold: k, Points: len(pts), Bytes: size,
		},
		pts: slices.Clone(pts),
	}
	c.insert(e)
	mStores.Inc()
	c.chargeWrite(p, size)
	return nil
}

// insert adds e, first removing the entry it replaces and then evicting
// least-recently-used entries until it fits.
func (c *Cache) insert(e *entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = slices.DeleteFunc(c.entries, func(o *entry) bool {
		return o.Dataset == e.Dataset && o.Field == e.Field && o.Timestep == e.Timestep && o.Region == e.Region
	})
	if c.capacity > 0 {
		var total int64
		for _, o := range c.entries {
			total += o.Bytes
		}
		for len(c.entries) > 0 && total+e.Bytes > c.capacity {
			victim := slices.MinFunc(c.entries, func(a, b *entry) int { return cmp.Compare(a.LastUsed, b.LastUsed) })
			c.entries = slices.DeleteFunc(c.entries, func(o *entry) bool { return o == victim })
			total -= victim.Bytes
			c.stats.Evictions++
			mEvictions.Inc()
		}
	}
	c.clock++
	e.LastUsed = c.clock
	c.entries = append(c.entries, e)
	c.stats.Stores++
}

// Drop removes every cached entry for (dataset, field, timestep), threshold
// results and aggregates alike, under fieldName and under every
// fieldName+"@…" key (the scan-routed variants a node keys replica scans
// by) — used by the experiment harness to force cache misses, mirroring how
// the paper dropped cache entries for the queried time-step before
// cache-miss runs.
func (c *Cache) Drop(dataset, fieldName string, step int) {
	match := func(ds, f string, s int) bool {
		return ds == dataset && s == step && (f == fieldName || strings.HasPrefix(f, fieldName+"@"))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = slices.DeleteFunc(c.entries, func(e *entry) bool { return match(e.Dataset, e.Field, e.Timestep) })
	c.aggs = slices.DeleteFunc(c.aggs, func(a *aggEntry) bool { return match(a.dataset, a.field, a.step) })
}

// Entries returns a snapshot of the cacheInfo rows (for inspection and
// tests).
func (c *Cache) Entries() []InfoRow {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]InfoRow, len(c.entries))
	for i, e := range c.entries {
		out[i] = e.InfoRow
	}
	return out
}

// SizeBytes returns the cache's current modeled SSD footprint: its
// threshold entries, which CapacityBytes bounds, plus its aggregates, which
// sit outside CapacityBytes under their own budget.
func (c *Cache) SizeBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total int64
	for _, e := range c.entries {
		total += e.Bytes
	}
	for _, a := range c.aggs {
		total += aggDiskSize(len(a.counts))
	}
	return total
}
