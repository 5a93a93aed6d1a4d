package cache

import (
	"cmp"
	"slices"

	"github.com/turbdb/turbdb/internal/sim"
)

// aggEntry is one entry of the aggregate-result cache — the extension the
// paper sketches ("the cache ... can easily be extended to cache the results
// of other query types as well if that becomes advantageous"). PDF
// histograms are aggregates, so unlike threshold results they match on an
// exact key rather than by threshold dominance. Only lastUsed changes after
// StoreAgg, and only under Cache.mu.
type aggEntry struct {
	dataset, field string
	step           int
	// key encodes the remaining query parameters (region, bins, width, …).
	key      string
	counts   []int64
	lastUsed uint64
}

// aggDiskSize models the SSD footprint of an aggregate entry.
func aggDiskSize(bins int) int64 { return infoDiskSize + int64(bins)*16 }

// LookupAgg returns a cached aggregate for the exact key, if present.
func (c *Cache) LookupAgg(p *sim.Proc, dataset, fieldName string, step int, key string) ([]int64, bool) {
	if c.aggEntries <= 0 {
		return nil, false
	}
	hit := c.findAgg(dataset, fieldName, step, key)
	c.chargeRead(p, infoDiskSize)
	if hit == nil {
		return nil, false
	}
	c.chargeRead(p, aggDiskSize(len(hit.counts)))
	c.touch(&hit.lastUsed)
	return slices.Clone(hit.counts), true
}

// findAgg returns the aggregate stored under the exact key, or nil; a miss
// is counted here.
func (c *Cache) findAgg(dataset, fieldName string, step int, key string) *aggEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, a := range c.aggs {
		if a.dataset == dataset && a.field == fieldName && a.step == step && a.key == key {
			return a
		}
	}
	c.stats.Misses++
	return nil
}

// StoreAgg records an aggregate result under its exact key, replacing any
// previous entry and evicting the least recently used aggregates beyond the
// configured entry budget.
func (c *Cache) StoreAgg(p *sim.Proc, dataset, fieldName string, step int, key string, counts []int64) {
	if c.aggEntries <= 0 {
		return
	}
	a := &aggEntry{dataset: dataset, field: fieldName, step: step, key: key, counts: slices.Clone(counts)}
	c.insertAgg(a)
	c.chargeWrite(p, aggDiskSize(len(counts)))
}

// insertAgg adds a, first removing the aggregate it replaces and then
// evicting least-recently-used aggregates until the budget has room.
func (c *Cache) insertAgg(a *aggEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.aggs = slices.DeleteFunc(c.aggs, func(o *aggEntry) bool {
		return o.dataset == a.dataset && o.field == a.field && o.step == a.step && o.key == a.key
	})
	for len(c.aggs) > 0 && len(c.aggs) >= c.aggEntries {
		victim := slices.MinFunc(c.aggs, func(x, y *aggEntry) int { return cmp.Compare(x.lastUsed, y.lastUsed) })
		c.aggs = slices.DeleteFunc(c.aggs, func(o *aggEntry) bool { return o == victim })
		c.stats.Evictions++
	}
	c.clock++
	a.lastUsed = c.clock
	c.aggs = append(c.aggs, a)
	c.stats.Stores++
}
