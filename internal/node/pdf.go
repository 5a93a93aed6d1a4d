package node

import (
	"container/heap"
	"context"
	"fmt"
	"sort"

	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sim"
	"github.com/turbdb/turbdb/internal/stencil"
)

// PDFResult is one node's contribution to a histogram query.
type PDFResult struct {
	// Counts[i] is the number of this node's grid points whose field norm
	// falls in bin i.
	Counts    []int64
	Breakdown Breakdown
}

// pdfCacheKey encodes the PDF parameters that are not part of the cache's
// primary key.
func pdfCacheKey(q query.PDF) string {
	return fmt.Sprintf("pdf/%v/%d/%g/%g", q.Box, q.Bins, q.Min, q.Width)
}

// GetPDF histograms the norm of the requested field over this node's shard
// of the query box, using the same data-parallel strategy as threshold
// queries (paper Sec. 4: the probability density function "is computed
// using a similar strategy to threshold queries").
//
// The production cache stores only threshold results, but the paper notes
// it "can easily be extended to cache the results of other query types";
// when the node's cache is configured with an aggregate budget
// (cache.Config.AggEntries), per-node PDF histograms are cached under an
// exact parameter key.
func (n *Node) GetPDF(ctx context.Context, p *sim.Proc, q query.PDF) (*PDFResult, error) {
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

	start := n.exec.Now()
	ckey := cacheFieldKey(q.Field, q.FDOrder) + scanCacheSuffix(q.Scan)
	if n.cache != nil {
		counts, ok, err := n.cache.LookupAgg(p, q.Dataset, ckey, q.Timestep, pdfCacheKey(q))
		if err != nil {
			return nil, err
		}
		if ok {
			res := &PDFResult{Counts: counts}
			res.Breakdown.CacheLookup = n.exec.Now() - start
			res.Breakdown.Total = res.Breakdown.CacheLookup
			return res, nil
		}
	}
	perWorker := make([][]int64, n.Processes())
	consumerFor := func(worker int) rowConsumer {
		perWorker[worker] = make([]int64, q.Bins)
		counts := perWorker[worker]
		return func(_ grid.Point, norms []float64) bool {
			for _, norm := range norms {
				counts[q.Bin(norm)]++
			}
			return true
		}
	}
	bd, err := n.evalPhases(ctx, p, f, st, q.Timestep, q.Box, q.Scan, hw, nil, consumerFor)
	if err != nil {
		return nil, err
	}
	res := &PDFResult{Counts: make([]int64, q.Bins), Breakdown: bd}
	for _, counts := range perWorker {
		for i, c := range counts {
			res.Counts[i] += c
		}
	}
	// A degraded (partial-halo) histogram is never cached.
	if n.cache != nil && bd.AtomsSkipped == 0 {
		if err := n.cache.StoreAgg(p, q.Dataset, ckey, q.Timestep, pdfCacheKey(q), res.Counts); err != nil {
			return nil, err
		}
	}
	res.Breakdown.Total = n.exec.Now() - start
	return res, nil
}

// TopKResult is one node's top-k candidates.
type TopKResult struct {
	// Points are this node's k largest-norm locations, descending by norm.
	Points    []query.ResultPoint
	Breakdown Breakdown
}

// ranksBefore is the total order of top-k answers: larger value first, and
// at a float32 tie the smaller Morton code. Retention and the final sort
// both rank by it, so which of several tied points make the cut never
// depends on the order a scan visits them in.
func ranksBefore(a, b query.ResultPoint) bool {
	if a.Value != b.Value { //lint:allow floateq exact tie-break keeps the order total and deterministic
		return a.Value > b.Value
	}
	return a.Code < b.Code
}

// minHeap keeps the k best-ranked points seen so far (the root is the
// worst-ranked point retained).
type minHeap []query.ResultPoint

func (h minHeap) Len() int            { return len(h) }
func (h minHeap) Less(i, j int) bool  { return ranksBefore(h[j], h[i]) }
func (h minHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *minHeap) Push(x interface{}) { *h = append(*h, x.(query.ResultPoint)) }
func (h *minHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// GetTopK returns this node's k largest field norms within the query box.
// The mediator merges per-node candidate lists into the global top-k. As
// the paper notes, generic top-k pruning techniques do not apply because
// derived-field scores are non-monotone kernel computations over
// neighborhoods — so the node evaluates its full shard and keeps a k-sized
// heap.
func (n *Node) GetTopK(ctx context.Context, p *sim.Proc, q query.TopK) (*TopKResult, error) {
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

	start := n.exec.Now()
	heaps := make([]minHeap, n.Processes())
	consumerFor := func(worker int) rowConsumer {
		h := &heaps[worker]
		return func(p grid.Point, norms []float64) bool {
			for i, norm := range norms {
				// Most points fall below a full heap's root: skip them
				// before paying for their Morton code.
				if h.Len() == q.K && float32(norm) < (*h)[0].Value {
					continue
				}
				if pt := query.PointFor(p.Add(i, 0, 0), norm); h.Len() < q.K {
					heap.Push(h, pt)
				} else if ranksBefore(pt, (*h)[0]) {
					(*h)[0] = pt
					heap.Fix(h, 0)
				}
			}
			return true
		}
	}
	bd, err := n.evalPhases(ctx, p, f, st, q.Timestep, q.Box, q.Scan, hw, nil, consumerFor)
	if err != nil {
		return nil, err
	}

	var all []query.ResultPoint
	for _, h := range heaps {
		all = append(all, h...)
	}
	sort.Slice(all, func(i, j int) bool { return ranksBefore(all[i], all[j]) })
	if len(all) > q.K {
		all = all[:q.K]
	}
	res := &TopKResult{Points: all, Breakdown: bd}
	res.Breakdown.Total = n.exec.Now() - start
	return res, nil
}
