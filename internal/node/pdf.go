package node

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"sort"

	"github.com/turbdb/turbdb/internal/cache"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sim"
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

// pdfMember histograms the norms of its box. The production cache stores
// only threshold results, but the paper notes it "can easily be extended to
// cache the results of other query types"; when the node's cache is
// configured with an aggregate budget (cache.Config.AggEntries), per-node
// histograms are cached under an exact parameter key.
type pdfMember struct {
	q      query.PDF
	parts  [][]int64 // per worker
	counts []int64
}

func (m *pdfMember) pred() atomPred { return atomPred{m.q.Box, math.Inf(-1)} }

func (m *pdfMember) consumer() rowConsumer {
	counts := make([]int64, m.q.Bins)
	m.parts = append(m.parts, counts)
	return func(p grid.Point, norms []float64) bool {
		lo, hi := rowSpan(m.q.Box, p, len(norms))
		for i := lo; i < hi; i++ {
			counts[m.q.Bin(norms[i])]++
		}
		return true
	}
}

func (m *pdfMember) finish() error {
	for _, part := range m.parts {
		for i, c := range part {
			m.counts[i] += c
		}
	}
	return nil
}

func (m *pdfMember) lookup(p *sim.Proc, c *cache.Cache, dataset, key string, step int) (bool, error) {
	counts, ok, err := c.LookupAgg(p, dataset, key, step, pdfCacheKey(m.q))
	if ok {
		m.counts = counts
	}
	return ok, err
}

func (m *pdfMember) store(p *sim.Proc, c *cache.Cache, dataset, key string, step int) error {
	return c.StoreAgg(p, dataset, key, step, pdfCacheKey(m.q), m.counts)
}

// GetPDF histograms the norm of the requested field over this node's shard
// of the query box, as one member of a node scan (paper Sec. 4: the
// probability density function "is computed using a similar strategy to
// threshold queries").
func (n *Node) GetPDF(ctx context.Context, p *sim.Proc, q query.PDF) (*PDFResult, error) {
	domain := n.Grid().Domain()
	q = q.Normalize(domain)
	if err := q.Validate(domain); err != nil {
		return nil, err
	}
	m := &pdfMember{q: q, counts: make([]int64, q.Bins)}
	bd, err := n.scanOne(ctx, p, scanKey{q.Dataset, q.Field, q.FDOrder, q.Timestep, q.Scan}, m)
	if err != nil {
		return nil, err
	}
	return &PDFResult{Counts: m.counts, Breakdown: bd}, nil
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
	if a.Value != b.Value { // exact tie-break keeps the order total and deterministic
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

// topKMember keeps the k largest norms of its box in one heap per worker.
// It has no cache entry.
type topKMember struct {
	q     query.TopK
	heaps []*minHeap // per worker
	pts   []query.ResultPoint
}

func (m *topKMember) pred() atomPred { return atomPred{m.q.Box, math.Inf(-1)} }

func (m *topKMember) consumer() rowConsumer {
	h := &minHeap{}
	m.heaps = append(m.heaps, h)
	return func(p grid.Point, norms []float64) bool {
		lo, hi := rowSpan(m.q.Box, p, len(norms))
		for i := lo; i < hi; i++ {
			// Most points fall below a full heap's root: skip them before
			// paying for their Morton code.
			if h.Len() == m.q.K && float32(norms[i]) < (*h)[0].Value {
				continue
			}
			if pt := query.PointFor(p.Add(i, 0, 0), norms[i]); h.Len() < m.q.K {
				heap.Push(h, pt)
			} else if ranksBefore(pt, (*h)[0]) {
				(*h)[0] = pt
				heap.Fix(h, 0)
			}
		}
		return true
	}
}

func (m *topKMember) finish() error {
	for _, h := range m.heaps {
		m.pts = append(m.pts, *h...)
	}
	sort.Slice(m.pts, func(i, j int) bool { return ranksBefore(m.pts[i], m.pts[j]) })
	if len(m.pts) > m.q.K {
		m.pts = m.pts[:m.q.K]
	}
	return nil
}

// GetTopK returns this node's k largest field norms within the query box.
// The mediator merges per-node candidate lists into the global top-k. As
// the paper notes, generic top-k pruning techniques do not apply because
// derived-field scores are non-monotone kernel computations over
// neighborhoods — so the node evaluates its full shard and keeps a k-sized
// heap.
func (n *Node) GetTopK(ctx context.Context, p *sim.Proc, q query.TopK) (*TopKResult, error) {
	domain := n.Grid().Domain()
	q = q.Normalize(domain)
	if err := q.Validate(domain); err != nil {
		return nil, err
	}
	m := &topKMember{q: q}
	bd, err := n.scanOne(ctx, p, scanKey{q.Dataset, q.Field, q.FDOrder, q.Timestep, q.Scan}, m)
	if err != nil {
		return nil, err
	}
	return &TopKResult{Points: m.pts, Breakdown: bd}, nil
}
