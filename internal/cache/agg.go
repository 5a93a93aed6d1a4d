package cache

import (
	"cmp"
	"fmt"
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

// aggBudget bounds the modeled SSD footprint of a cache's aggregates. It is
// their own budget, outside CapacityBytes: aggregates charged to the
// threshold capacity evict the threshold entries a workload re-reads
// (DESIGN.md §4 decision 23). 1 MiB holds hundreds of the few-dozen-bin
// histograms analysis sessions re-ask; it bounds bytes, not entries,
// because one legal PDF may have 10⁶ bins.
const aggBudget = 1 << 20

// aggDiskSize models the SSD footprint of an aggregate entry.
func aggDiskSize(bins int) int64 { return infoDiskSize + int64(bins)*16 }

// LookupAgg returns a cached aggregate for the exact key, if present.
func (c *Cache) LookupAgg(p *sim.Proc, dataset, fieldName string, step int, key string) ([]int64, bool) {
	hit := c.findAgg(dataset, fieldName, step, key)
	c.chargeRead(p, infoDiskSize)
	if hit == nil {
		mMisses.Inc()
		return nil, false
	}
	c.chargeRead(p, aggDiskSize(len(hit.counts)))
	mHits.Inc()
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
// previous entry and evicting the least recently used aggregates until it
// fits the aggregate budget. The only error is ErrEntryTooLarge: an
// aggregate larger than the whole budget is not stored.
func (c *Cache) StoreAgg(p *sim.Proc, dataset, fieldName string, step int, key string, counts []int64) error {
	size := aggDiskSize(len(counts))
	if size > aggBudget {
		return fmt.Errorf("%w: aggregate of %d bytes, budget %d", ErrEntryTooLarge, size, aggBudget)
	}
	a := &aggEntry{dataset: dataset, field: fieldName, step: step, key: key, counts: slices.Clone(counts)}
	c.insertAgg(a)
	mStores.Inc()
	c.chargeWrite(p, size)
	return nil
}

// insertAgg adds a, first removing the aggregate it replaces and then
// evicting least-recently-used aggregates until the budget has room.
func (c *Cache) insertAgg(a *aggEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.aggs = slices.DeleteFunc(c.aggs, func(o *aggEntry) bool {
		return o.dataset == a.dataset && o.field == a.field && o.step == a.step && o.key == a.key
	})
	var total int64
	for _, o := range c.aggs {
		total += aggDiskSize(len(o.counts))
	}
	size := aggDiskSize(len(a.counts))
	for len(c.aggs) > 0 && total+size > aggBudget {
		victim := slices.MinFunc(c.aggs, func(x, y *aggEntry) int { return cmp.Compare(x.lastUsed, y.lastUsed) })
		c.aggs = slices.DeleteFunc(c.aggs, func(o *aggEntry) bool { return o == victim })
		total -= aggDiskSize(len(victim.counts))
		c.stats.Evictions++
		mEvictions.Inc()
	}
	c.clock++
	a.lastUsed = c.clock
	c.aggs = append(c.aggs, a)
	c.stats.Stores++
}
