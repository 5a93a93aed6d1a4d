package node

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"github.com/turbdb/turbdb/internal/cache"
	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/obs"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sim"
	"github.com/turbdb/turbdb/internal/stencil"
)

// ThresholdResult is one node's answer to a threshold query.
type ThresholdResult struct {
	// Points are the qualifying locations in this node's shard, ordered by
	// Morton code.
	Points []query.ResultPoint
	// FromCache reports whether the answer came from the semantic cache.
	FromCache bool
	// Breakdown gives the phase timings of this node's evaluation.
	Breakdown Breakdown
	// Shared is the number of queries that shared the node-side scan that
	// produced this answer (0 or 1 for a solo evaluation, ≥ 2 inside a
	// shared-scan batch).
	Shared int
	// ScansSaved counts the atom scans this query avoided because the pass
	// was shared: the atoms a solo evaluation would have scanned (after the
	// synopsis pruned) minus this query's share of the union pass.
	ScansSaved int
}

// cacheFieldKey builds the cache key component for a field: results depend
// on the finite-difference order, so it is part of the key.
func cacheFieldKey(fieldName string, order int) string {
	return fmt.Sprintf("%s/fd%d", fieldName, order)
}

// scanCacheSuffix makes replica-routed scans cache-distinct: the same box
// over different assigned ranges yields different point sets, so the scan
// signature joins the cache key. Empty for the whole-shard scan (a request
// without Scan), so those keys do not depend on the placement.
func scanCacheSuffix(scan []morton.Range) string {
	if len(scan) == 0 {
		return ""
	}
	var b strings.Builder
	for _, r := range scan {
		fmt.Fprintf(&b, "@%d-%d", uint64(r.Lo), uint64(r.Hi))
	}
	return b.String()
}

// resolveField looks up the queried field and verifies this node stores its
// raw input.
func (n *Node) resolveField(fieldName string) (*derived.Field, error) {
	f, err := n.registry.Lookup(fieldName)
	if err != nil {
		return nil, err
	}
	for _, rf := range f.Raws {
		if _, err := n.store.FieldMeta(rf.Name); err != nil {
			return nil, faulttol.Permanentf("node: dataset %q does not store %q (needed for %q)",
				n.dataset, rf.Name, fieldName)
		}
	}
	return f, nil
}

// GetThreshold evaluates a threshold query over this node's shard of the
// data, implementing the paper's Algorithm 1:
//
//  1. interrogate the local cache: an entry for (dataset, field, time-step)
//     whose region contains the query box and whose stored threshold is ≤
//     the requested one answers the query by an index scan;
//  2. otherwise read the raw data (plus halo) into memory, derive the field
//     at every grid location, keep the locations whose norm is ≥ the
//     threshold, and store the result in the cache.
//
// The result-point limit is enforced: queries that would return more than
// q.Limit points fail with *query.ErrTooManyPoints, and nothing is cached.
//
// ctx bounds the evaluation: cancellation or an expired deadline aborts
// both the I/O and compute phases between atoms. A nil ctx means no
// deadline (accepted for in-process convenience).
func (n *Node) GetThreshold(ctx context.Context, p *sim.Proc, q query.Threshold) (*ThresholdResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	domain := n.Grid().Domain()
	q = q.Normalize(domain)
	if err := q.Validate(domain); err != nil {
		return nil, err
	}
	if q.Dataset != n.dataset {
		return nil, faulttol.Permanentf("node: serves dataset %q, not %q", n.dataset, q.Dataset)
	}
	f, err := n.resolveField(q.Field)
	if err != nil {
		return nil, err
	}
	hw, err := f.HalfWidth(q.FDOrder)
	if err != nil {
		return nil, err
	}
	st, err := stencil.Get(q.FDOrder)
	if err != nil {
		return nil, err
	}

	res := &ThresholdResult{}
	start := n.exec.Now()
	ckey := cacheFieldKey(q.Field, q.FDOrder) + scanCacheSuffix(q.Scan)

	// Algorithm 1, lines 4–28: cache interrogation.
	if n.cache != nil {
		_, sp := obs.StartSpan(ctx, "cache_lookup")
		pts, ok, err := n.cache.Lookup(p, q.Dataset, ckey, q.Timestep, q.Threshold, q.Box)
		sp.End()
		res.Breakdown.CacheLookup = n.exec.Now() - start
		mCacheLookup.Observe(res.Breakdown.CacheLookup.Seconds())
		if err != nil {
			return nil, err
		}
		if ok {
			if len(pts) > q.Limit {
				return nil, &query.ErrTooManyPoints{Limit: q.Limit, Seen: len(pts)}
			}
			sort.Slice(pts, func(i, j int) bool { return pts[i].Code < pts[j].Code })
			res.Points = pts
			res.FromCache = true
			res.Breakdown.Total = n.exec.Now() - start
			return res, nil
		}
	}

	// Algorithm 1, lines 29–36: evaluate from the raw data.
	var total atomic.Int64
	var overLimit atomic.Bool // consumers from every worker process race on it
	results := make([][]query.ResultPoint, n.Processes())
	consumerFor := func(worker int) rowConsumer {
		return func(p grid.Point, norms []float64) bool {
			for i, norm := range norms {
				if norm >= q.Threshold {
					results[worker] = append(results[worker], query.PointFor(p.Add(i, 0, 0), norm))
					if int(total.Add(1)) > q.Limit {
						overLimit.Store(true)
						return false
					}
				}
			}
			return true
		}
	}
	preds := []atomPred{{q.Box, q.Threshold}}
	bd, err := n.evalPhases(ctx, p, f, st, q.Timestep, q.Box, q.Scan, hw, preds, consumerFor)
	res.Breakdown.IO = bd.IO
	res.Breakdown.Compute = bd.Compute
	res.Breakdown.AtomsRead = bd.AtomsRead
	res.Breakdown.HaloAtoms = bd.HaloAtoms
	res.Breakdown.PointsExamined = bd.PointsExamined
	res.Breakdown.AtomsSkipped = bd.AtomsSkipped
	res.Breakdown.AtomsPruned = bd.AtomsPruned
	if err != nil {
		return nil, err
	}
	if overLimit.Load() {
		return nil, &query.ErrTooManyPoints{Limit: q.Limit, Seen: int(total.Load())}
	}

	var pts []query.ResultPoint
	for _, r := range results {
		pts = append(pts, r...)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Code < pts[j].Code })

	// Algorithm 1, line 37: update the cacheInfo and cacheData tables.
	// Caching is best-effort: a result too large for the cache is simply
	// served uncached. A degraded (partial-halo) result is never cached —
	// it would poison later complete queries.
	if n.cache != nil && bd.AtomsSkipped == 0 {
		t0 := n.exec.Now()
		_, sp := obs.StartSpan(ctx, "cache_update")
		err := n.cache.Store(p, q.Dataset, ckey, q.Timestep, q.Threshold, q.Box, pts)
		sp.End()
		if err != nil && !errors.Is(err, cache.ErrEntryTooLarge) {
			return nil, fmt.Errorf("node: cache update: %w", err)
		}
		res.Breakdown.CacheUpdate = n.exec.Now() - t0
		mCacheUpdate.Observe(res.Breakdown.CacheUpdate.Seconds())
	}

	res.Points = pts
	res.Breakdown.Total = n.exec.Now() - start
	return res, nil
}

// DropCacheEntry removes what the node remembers of (field, order, step) —
// cached results under any scan routing and the max-norm synopsis — so the
// next query is a first touch; used to force cold runs in experiments. The
// in-process drop is quick; ctx matters for the mediator.NodeClient
// contract (the wire implementation blocks on the network) and is still
// honored if already canceled.
func (n *Node) DropCacheEntry(ctx context.Context, fieldName string, order, step int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if order == 0 {
		order = query.DefaultFDOrder
	}
	base := cacheFieldKey(fieldName, order)
	if n.synopsis != nil {
		n.synopsis.drop(synKey{base, step})
	}
	if n.cache == nil {
		return nil
	}
	if err := n.cache.Drop(n.dataset, base, step); err != nil {
		return err
	}
	// Replica-routed scans cache under scan-suffixed keys; drop those too so
	// a cold-cache request stays cold regardless of the routing in effect.
	for _, row := range n.cache.Entries() {
		if row.Dataset == n.dataset && row.Timestep == step && strings.HasPrefix(row.Field, base+"@") {
			if err := n.cache.Drop(n.dataset, row.Field, step); err != nil {
				return err
			}
		}
	}
	return nil
}
