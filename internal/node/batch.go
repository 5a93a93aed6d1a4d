package node

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"github.com/turbdb/turbdb/internal/cache"
	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/obs"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sim"
	"github.com/turbdb/turbdb/internal/stencil"
)

// ThresholdBatchResult is one node's answer to a shared-scan batch of
// threshold queries. Results and Errs are indexed like the request slice;
// exactly one of Results[i] / Errs[i] is set per member. A member error
// (e.g. over its point limit) never fails the other members — only
// batch-wide problems (bad field, I/O failure, cancellation) surface as
// the call's error.
type ThresholdBatchResult struct {
	Results []*ThresholdResult
	Errs    []error
	// AtomsScanned is the size of the single union pass that served every
	// non-cached member: the atoms it evaluated, after the synopsis pruned
	// (0 when all members hit the cache).
	AtomsScanned int
}

// unionBox returns the bounding box of two half-open boxes.
func unionBox(a, b grid.Box) grid.Box {
	if a.Empty() {
		return b
	}
	if b.Empty() {
		return a
	}
	return grid.Box{
		Lo: grid.Point{X: min(a.Lo.X, b.Lo.X), Y: min(a.Lo.Y, b.Lo.Y), Z: min(a.Lo.Z, b.Lo.Z)},
		Hi: grid.Point{X: max(a.Hi.X, b.Hi.X), Y: max(a.Hi.Y, b.Hi.Y), Z: max(a.Hi.Z, b.Hi.Z)},
	}
}

// sameScan reports whether two scan restrictions are identical.
func sameScan(a, b []morton.Range) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// GetThresholdBatch evaluates several threshold queries over the same
// (dataset, field, FD order, time-step, scan) in ONE pass over the union of
// their boxes — the shared-scan entry point behind the mediator scheduler's
// batching window. Per-point derived norms do not depend on the enclosing
// scan box (the row kernels are row-start independent, proven bit-for-bit in
// the kernel differential tests), so evaluating member i's predicate while
// scanning the union box yields exactly the points a solo GetThreshold over
// q_i.Box would have produced, in the same order after the Morton sort.
//
// The cache keeps its usual role: members whose answer is already cached are
// served from it and excluded from the scan; members evaluated by the scan
// are stored back individually, so a batch warms the cache exactly like the
// equivalent solo queries would have.
func (n *Node) GetThresholdBatch(ctx context.Context, p *sim.Proc, qs []query.Threshold) (*ThresholdBatchResult, error) {
	if len(qs) == 0 {
		return nil, faulttol.Permanent("node: empty threshold batch")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	domain := n.Grid().Domain()
	k := len(qs)
	nqs := make([]query.Threshold, k)
	for i, q := range qs {
		nqs[i] = q.Normalize(domain)
		if err := nqs[i].Validate(domain); err != nil {
			return nil, err
		}
		if nqs[i].Dataset != n.dataset {
			return nil, faulttol.Permanentf("node: serves dataset %q, not %q", n.dataset, nqs[i].Dataset)
		}
		if i > 0 && (nqs[i].Field != nqs[0].Field || nqs[i].FDOrder != nqs[0].FDOrder ||
			nqs[i].Timestep != nqs[0].Timestep || !sameScan(nqs[i].Scan, nqs[0].Scan)) {
			return nil, faulttol.Permanentf("node: batch member %d disagrees with member 0 on (field, order, step, scan)", i)
		}
	}
	f, err := n.resolveField(nqs[0].Field)
	if err != nil {
		return nil, err
	}
	hw, err := f.HalfWidth(nqs[0].FDOrder)
	if err != nil {
		return nil, err
	}
	st, err := stencil.Get(nqs[0].FDOrder)
	if err != nil {
		return nil, err
	}

	res := &ThresholdBatchResult{
		Results: make([]*ThresholdResult, k),
		Errs:    make([]error, k),
	}
	start := n.exec.Now()

	// Cache interrogation per member; misses join the shared scan.
	ckeys := make([]string, k)
	lookupDur := make([]time.Duration, k)
	active := make([]int, 0, k)
	for i := range nqs {
		q := nqs[i]
		ckeys[i] = cacheFieldKey(q.Field, q.FDOrder) + scanCacheSuffix(q.Scan)
		if n.cache == nil {
			active = append(active, i)
			continue
		}
		t0 := n.exec.Now()
		_, sp := obs.StartSpan(ctx, "cache_lookup")
		pts, ok, err := n.cache.Lookup(p, q.Dataset, ckeys[i], q.Timestep, q.Threshold, q.Box)
		sp.End()
		lookupDur[i] = n.exec.Now() - t0
		mCacheLookup.Observe(lookupDur[i].Seconds())
		if err != nil {
			return nil, err
		}
		if !ok {
			active = append(active, i)
			continue
		}
		if len(pts) > q.Limit {
			res.Errs[i] = &query.ErrTooManyPoints{Limit: q.Limit, Seen: len(pts)}
			continue
		}
		sort.Slice(pts, func(a, b int) bool { return pts[a].Code < pts[b].Code })
		res.Results[i] = &ThresholdResult{
			Points:    pts,
			FromCache: true,
			Breakdown: Breakdown{CacheLookup: lookupDur[i], Total: n.exec.Now() - start},
		}
	}
	if len(active) == 0 {
		return res, nil
	}

	// The shared pass covers the union bounding box of the active members.
	scan := nqs[0].Scan
	ub := nqs[active[0]].Box
	for _, i := range active[1:] {
		ub = unionBox(ub, nqs[i].Box)
	}

	// Scan-cost accounting: what each member would have scanned alone, to
	// set against the one union pass they share. Both sides count the atoms
	// left after the synopsis has pruned, so the difference is what sharing
	// saved and not what pruning did.
	syn := n.openSynopsis(f, st, nqs[0].Timestep)
	preds := make([]atomPred, len(active))
	wouldScan := make([]int, k)
	for pos, i := range active {
		preds[pos] = atomPred{nqs[i].Box, nqs[i].Threshold}
		codes, _, err := n.scanSet(syn, nqs[i].Box, scan, preds[pos:pos+1])
		if err != nil {
			return nil, err
		}
		wouldScan[i] = len(codes)
	}
	unionCodes, _, err := n.scanSet(syn, ub, scan, preds)
	if err != nil {
		return nil, err
	}
	res.AtomsScanned = len(unionCodes)

	// One evaluation pass; every point is tested against all live member
	// predicates. A member that exceeds its point limit goes dead (its
	// answer is already an error) without disturbing the others; the scan
	// itself aborts only when every member is dead.
	totals := make([]atomic.Int64, k)
	dead := make([]atomic.Bool, k)
	var alive atomic.Int64
	alive.Store(int64(len(active)))
	perWorker := make([][][]query.ResultPoint, n.Processes())
	consumerFor := func(worker int) rowConsumer {
		rows := make([][]query.ResultPoint, len(active))
		perWorker[worker] = rows
		return func(p grid.Point, norms []float64) bool {
			for ai, qi := range active {
				q := &nqs[qi]
				// The row's y and z are tested once; its x-run is cut to
				// the member's box before any point is looked at.
				if dead[qi].Load() || p.Y < q.Box.Lo.Y || p.Y >= q.Box.Hi.Y || p.Z < q.Box.Lo.Z || p.Z >= q.Box.Hi.Z {
					continue
				}
				lo, hi := max(q.Box.Lo.X-p.X, 0), min(q.Box.Hi.X-p.X, len(norms))
				for i := lo; i < hi; i++ {
					if norms[i] < q.Threshold {
						continue
					}
					rows[ai] = append(rows[ai], query.PointFor(p.Add(i, 0, 0), norms[i]))
					if int(totals[qi].Add(1)) > q.Limit {
						if !dead[qi].Swap(true) {
							alive.Add(-1)
						}
						break
					}
				}
			}
			return alive.Load() > 0
		}
	}
	bd, err := n.evalPhases(ctx, p, f, st, nqs[0].Timestep, ub, scan, hw, preds, consumerFor)
	if err != nil {
		return nil, err
	}

	for pos, qi := range active {
		q := nqs[qi]
		if dead[qi].Load() {
			res.Errs[qi] = &query.ErrTooManyPoints{Limit: q.Limit, Seen: int(totals[qi].Load())}
			continue
		}
		var pts []query.ResultPoint
		for w := range perWorker {
			if perWorker[w] != nil {
				pts = append(pts, perWorker[w][pos]...)
			}
		}
		sort.Slice(pts, func(a, b int) bool { return pts[a].Code < pts[b].Code })

		r := &ThresholdResult{Points: pts, Breakdown: bd, Shared: len(active)}
		r.Breakdown.CacheLookup = lookupDur[qi]
		if pos == 0 {
			// The union pass is charged to the first member; everyone else
			// saves their whole solo scan.
			r.ScansSaved = wouldScan[qi] - res.AtomsScanned
			if r.ScansSaved < 0 {
				r.ScansSaved = 0
			}
		} else {
			r.ScansSaved = wouldScan[qi]
		}

		// A degraded (partial-halo) pass is never cached, same as solo.
		if n.cache != nil && bd.AtomsSkipped == 0 {
			t0 := n.exec.Now()
			_, sp := obs.StartSpan(ctx, "cache_update")
			err := n.cache.Store(p, q.Dataset, ckeys[qi], q.Timestep, q.Threshold, q.Box, pts)
			sp.End()
			if err != nil && !errors.Is(err, cache.ErrEntryTooLarge) {
				return nil, fmt.Errorf("node: cache update: %w", err)
			}
			r.Breakdown.CacheUpdate = n.exec.Now() - t0
			mCacheUpdate.Observe(r.Breakdown.CacheUpdate.Seconds())
		}
		r.Breakdown.Total = n.exec.Now() - start
		res.Results[qi] = r
	}
	return res, nil
}
