// Package cache implements the application-aware semantic cache for
// threshold-query results — the central contribution of the paper's
// evaluation strategy.
//
// Each database node has a local cache held in two tables (paper Sec. 4):
//
//	cacheInfo  — metadata per cached entry: dataset, field, time-step, the
//	             start and end coordinates of the spatial region examined,
//	             and the threshold value used;
//	cacheData  — the locations (Morton z-index) and norms of every grid
//	             point above that threshold, foreign-key constrained to the
//	             cacheInfo ordinal.
//
// A subsequent query is answered from the cache when it lies within a
// cached region and specifies the same or a higher threshold
// (threshold-dominance + region-containment — the semantic-caching match
// rule). Hits skip both the raw-data I/O and the derived-field computation.
//
// All reads and modifications run in snapshot-isolation transactions
// (internal/txn), so parallel queries never block each other or deadlock.
// Entries are evicted least-recently-used across all quantities when the
// configured SSD capacity is exceeded. Cached bytes are charged to the
// node's SSD device model when running inside the cluster simulation.
package cache

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"github.com/turbdb/turbdb/internal/diskmodel"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/obs"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sim"
	"github.com/turbdb/turbdb/internal/txn"
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

// Table names.
const (
	TableInfo = "cacheInfo"
	TableData = "cacheData"
)

// PointDiskSize is the modeled on-SSD footprint of one cached point,
// including index space and database overhead. The paper sizes the cache at
// ~40 MB per 10⁶-point time-step → 40 bytes/point.
const PointDiskSize = 40

// infoDiskSize is the modeled on-SSD footprint of a cacheInfo row.
const infoDiskSize = 512

// chunkPoints is how many points one cacheData row holds. The production
// system stores one row per point; chunking keeps the in-memory row count
// manageable while preserving the ordinal-indexed retrieval pattern.
const chunkPoints = 4096

// InfoRow is the schema of the cacheInfo table.
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

// DataRow is the schema of the cacheData table: a chunk of result points
// belonging to one cacheInfo ordinal.
type DataRow struct {
	InfoOrdinal txn.RowID
	Seq         int
	Points      []query.ResultPoint
}

// Config configures a node's cache.
type Config struct {
	// CapacityBytes bounds the cache's modeled SSD footprint; 0 means
	// unlimited. The paper's nodes have ~200 GB of SSD per node.
	CapacityBytes int64
	// Kernel and SSD enable simulated I/O charging; both nil for real mode.
	Kernel *sim.Kernel
	SSD    *diskmodel.Device
	// AggEntries enables the aggregate (PDF) cache extension with an LRU
	// budget of that many entries; 0 disables it (the production system
	// caches only threshold results).
	AggEntries int
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
	db         *txn.DB
	capacity   int64
	kernel     *sim.Kernel
	ssd        *diskmodel.Device
	aggEntries int

	lruClock  atomic.Uint64
	hits      atomic.Int64
	misses    atomic.Int64
	stores    atomic.Int64
	evictions atomic.Int64
}

// New creates an empty cache.
func New(cfg Config) (*Cache, error) {
	if (cfg.Kernel == nil) != (cfg.SSD == nil) {
		return nil, fmt.Errorf("cache: kernel and SSD must be set together")
	}
	if cfg.CapacityBytes < 0 {
		return nil, fmt.Errorf("cache: negative capacity")
	}
	if cfg.AggEntries < 0 {
		return nil, fmt.Errorf("cache: negative aggregate entry budget")
	}
	db := txn.New()
	db.CreateTable(TableInfo)
	db.CreateTable(TableData)
	db.CreateTable(TableAgg)
	return &Cache{
		db:         db,
		capacity:   cfg.CapacityBytes,
		kernel:     cfg.Kernel,
		ssd:        cfg.SSD,
		aggEntries: cfg.AggEntries,
	}, nil
}

// Stats returns cumulative counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Stores:    c.stores.Load(),
		Evictions: c.evictions.Load(),
	}
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

// Lookup implements the cache-interrogation half of Algorithm 1: find a
// cacheInfo row for (dataset, field, timestep) whose stored threshold is ≤ k
// and whose region contains q; on a hit, scan its cacheData rows and return
// the points with value ≥ k inside q. ok reports whether the query was
// answerable from the cache.
func (c *Cache) Lookup(p *sim.Proc, dataset, fieldName string, step int, k float64, q grid.Box) (pts []query.ResultPoint, ok bool, err error) {
	tx := c.db.Begin()
	defer tx.Abort()

	// SELECT * FROM cacheInfo WHERE dataset = d AND field = f AND timestep = t
	c.chargeRead(p, infoDiskSize)
	var hitID txn.RowID
	var hit InfoRow
	found, partial := false, false
	err = tx.Scan(TableInfo, func(id txn.RowID, data interface{}) bool {
		row := data.(InfoRow)
		if row.Dataset != dataset || row.Field != fieldName || row.Timestep != step {
			return true
		}
		if k >= row.Threshold {
			if row.Region.ContainsBox(q) {
				hitID, hit, found = id, row, true
				return false
			}
			if !row.Region.Intersect(q).Empty() {
				partial = true
			}
		}
		return true
	})
	if err != nil {
		return nil, false, err
	}
	if !found {
		c.misses.Add(1)
		mMisses.Inc()
		if partial {
			mPartial.Inc()
		}
		return nil, false, nil
	}

	// SELECT * FROM cacheData WHERE cacheInfoOrdinal = ordinal
	c.chargeRead(p, int64(hit.Points)*PointDiskSize)
	err = tx.Scan(TableData, func(_ txn.RowID, data interface{}) bool {
		row := data.(DataRow)
		if row.InfoOrdinal != hitID {
			return true
		}
		for _, pt := range row.Points {
			if float64(pt.Value) >= k && q.Contains(pt.Coords()) {
				pts = append(pts, pt)
			}
		}
		return true
	})
	if err != nil {
		return nil, false, err
	}
	c.hits.Add(1)
	mHits.Inc()
	mHitPoints.Observe(float64(len(pts)))
	c.touch(hitID)
	return pts, true, nil
}

// touch bumps an entry's LRU clock in its own small transaction; conflicts
// are ignored (LRU maintenance is best-effort).
func (c *Cache) touch(id txn.RowID) {
	now := c.lruClock.Add(1)
	tx := c.db.Begin()
	defer tx.Abort()
	data, ok, err := tx.Get(TableInfo, id)
	if err != nil || !ok {
		return
	}
	row := data.(InfoRow)
	row.LastUsed = now
	if tx.Update(TableInfo, id, row) == nil {
		_ = tx.Commit() //lint:allow droppederr LRU touch is best-effort, ErrConflict acceptable
	}
}

// maxStoreRetries bounds Store's optimistic-concurrency retry loop.
const maxStoreRetries = 10

// Store implements the cache-update half of Algorithm 1: record the result
// of a threshold query (threshold k over region) for (dataset, field,
// timestep), replacing any previous entry for the same key and region, and
// evicting least-recently-used entries if capacity would be exceeded.
func (c *Cache) Store(p *sim.Proc, dataset, fieldName string, step int, k float64, region grid.Box, pts []query.ResultPoint) error {
	size := entrySize(len(pts))
	if c.capacity > 0 && size > c.capacity {
		return fmt.Errorf("%w: %d bytes, capacity %d", ErrEntryTooLarge, size, c.capacity)
	}
	var lastErr error
	for attempt := 0; attempt < maxStoreRetries; attempt++ {
		err := c.tryStore(dataset, fieldName, step, k, region, pts, size)
		if err == nil {
			c.stores.Add(1)
			mStores.Inc()
			c.chargeWrite(p, size)
			return nil
		}
		if !errors.Is(err, txn.ErrConflict) {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("cache: store kept conflicting: %w", lastErr)
}

// tryStore runs one optimistic attempt of Store.
func (c *Cache) tryStore(dataset, fieldName string, step int, k float64, region grid.Box, pts []query.ResultPoint, size int64) error {
	tx := c.db.Begin()
	defer tx.Abort()

	type entry struct {
		id  txn.RowID
		row InfoRow
	}
	var all []entry
	if err := tx.Scan(TableInfo, func(id txn.RowID, data interface{}) bool {
		all = append(all, entry{id, data.(InfoRow)})
		return true
	}); err != nil {
		return err
	}

	var total int64
	for _, e := range all {
		total += e.row.Bytes
	}

	// replace a previous entry for the same key + region
	for _, e := range all {
		r := e.row
		if r.Dataset == dataset && r.Field == fieldName && r.Timestep == step && r.Region == region {
			if err := c.deleteEntry(tx, e.id); err != nil {
				return err
			}
			total -= r.Bytes
		}
	}

	// evict LRU across all quantities until the new entry fits
	if c.capacity > 0 {
		for total+size > c.capacity {
			victim := -1
			for i, e := range all {
				r := e.row
				if r.Dataset == dataset && r.Field == fieldName && r.Timestep == step && r.Region == region {
					continue // already replaced above
				}
				if _, ok, err := tx.Get(TableInfo, e.id); err != nil {
					return err
				} else if !ok {
					continue // deleted earlier in this loop
				}
				if victim == -1 || e.row.LastUsed < all[victim].row.LastUsed {
					victim = i
				}
			}
			if victim == -1 {
				break // nothing left to evict
			}
			if err := c.deleteEntry(tx, all[victim].id); err != nil {
				return err
			}
			total -= all[victim].row.Bytes
			all[victim].row.LastUsed = ^uint64(0) // mark consumed
			c.evictions.Add(1)
			mEvictions.Inc()
		}
	}

	// insert the new entry
	now := c.lruClock.Add(1)
	info := InfoRow{
		Dataset: dataset, Field: fieldName, Timestep: step,
		Region: region, Threshold: k,
		Points: len(pts), Bytes: size, LastUsed: now,
	}
	ordinal, err := tx.Insert(TableInfo, info)
	if err != nil {
		return err
	}
	for seq, off := 0, 0; off < len(pts); seq, off = seq+1, off+chunkPoints {
		end := off + chunkPoints
		if end > len(pts) {
			end = len(pts)
		}
		chunk := make([]query.ResultPoint, end-off)
		copy(chunk, pts[off:end])
		if _, err := tx.Insert(TableData, DataRow{InfoOrdinal: ordinal, Seq: seq, Points: chunk}); err != nil {
			return err
		}
	}
	return tx.Commit()
}

// deleteEntry removes a cacheInfo row and its cacheData chunks within tx.
func (c *Cache) deleteEntry(tx *txn.Tx, id txn.RowID) error {
	var chunkIDs []txn.RowID
	if err := tx.Scan(TableData, func(did txn.RowID, data interface{}) bool {
		if data.(DataRow).InfoOrdinal == id {
			chunkIDs = append(chunkIDs, did)
		}
		return true
	}); err != nil {
		return err
	}
	for _, did := range chunkIDs {
		if err := tx.Delete(TableData, did); err != nil {
			return err
		}
	}
	return tx.Delete(TableInfo, id)
}

// Drop removes every cached entry for (dataset, field, timestep), threshold
// results and aggregates alike, under fieldName and under every
// fieldName+"@…" key (the scan-routed variants a node keys replica scans
// by) — used by the experiment harness to force cache misses, mirroring how
// the paper dropped cache entries for the queried time-step before
// cache-miss runs.
func (c *Cache) Drop(dataset, fieldName string, step int) error {
	for attempt := 0; attempt < maxStoreRetries; attempt++ {
		if err := c.tryDrop(dataset, fieldName, step); !errors.Is(err, txn.ErrConflict) {
			return err
		}
	}
	return fmt.Errorf("cache: drop kept conflicting")
}

// tryDrop runs one optimistic attempt of Drop.
func (c *Cache) tryDrop(dataset, fieldName string, step int) error {
	match := func(ds, f string, s int) bool {
		return ds == dataset && s == step && (f == fieldName || strings.HasPrefix(f, fieldName+"@"))
	}
	tx := c.db.Begin()
	defer tx.Abort()
	var ids, aggIDs []txn.RowID
	err := tx.Scan(TableInfo, func(id txn.RowID, data interface{}) bool {
		if r := data.(InfoRow); match(r.Dataset, r.Field, r.Timestep) {
			ids = append(ids, id)
		}
		return true
	})
	if err == nil {
		err = tx.Scan(TableAgg, func(id txn.RowID, data interface{}) bool {
			if r := data.(AggRow); match(r.Dataset, r.Field, r.Timestep) {
				aggIDs = append(aggIDs, id)
			}
			return true
		})
	}
	for _, id := range ids {
		if err == nil {
			err = c.deleteEntry(tx, id)
		}
	}
	for _, id := range aggIDs {
		if err == nil {
			err = tx.Delete(TableAgg, id)
		}
	}
	if err != nil {
		return err
	}
	return tx.Commit()
}

// Entries returns a snapshot of the cacheInfo table (for inspection and
// tests).
func (c *Cache) Entries() []InfoRow {
	tx := c.db.Begin()
	defer tx.Abort()
	var out []InfoRow
	//lint:allow droppederr table always exists and tx is open, Scan cannot fail
	_ = tx.Scan(TableInfo, func(_ txn.RowID, data interface{}) bool {
		out = append(out, data.(InfoRow))
		return true
	})
	return out
}

// SizeBytes returns the cache's current modeled SSD footprint.
func (c *Cache) SizeBytes() int64 {
	var total int64
	for _, e := range c.Entries() {
		total += e.Bytes
	}
	return total
}
