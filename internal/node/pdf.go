package node

import (
	"context"
	"fmt"
	"math"

	"github.com/turbdb/turbdb/internal/cache"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sim"
)

// PDFResult is one node's contribution to a histogram query.
type PDFResult struct {
	// Counts[i] is the number of this node's grid points whose field norm
	// falls in bin i.
	Counts []int64
	// FromCache reports whether the histogram came from the node's cache.
	FromCache bool
	Breakdown Breakdown
}

// pdfCacheKey encodes the PDF parameters that are not part of the cache's
// primary key.
func pdfCacheKey(q query.PDF) string {
	return fmt.Sprintf("pdf/%v/%d/%g/%g", q.Box, q.Bins, q.Min, q.Width)
}

// pdfMember histograms the norms of its box. The production cache stores
// only threshold results, but the paper notes it "can easily be extended to
// cache the results of other query types"; a node with a cache keeps its
// histograms too, under an exact parameter key and the cache's own constant
// aggregate budget (DESIGN.md §4 decision 23). A histogram larger than that
// budget is served uncached.
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
	counts, ok := c.LookupAgg(p, dataset, key, step, pdfCacheKey(m.q))
	if ok {
		m.counts = counts
	}
	return ok, nil
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
	o, err := n.scanOne(ctx, p, scanKey{q.Dataset, q.Field, q.FDOrder, q.Timestep, q.Scan}, m)
	if err != nil {
		return nil, err
	}
	return &PDFResult{Counts: m.counts, FromCache: o.fromCache, Breakdown: o.bd}, nil
}
