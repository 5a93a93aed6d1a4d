package node

import (
	"cmp"
	"container/heap"
	"context"
	"math"
	"slices"
	"sort"

	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sim"
)

// TopKResult is one node's top-k candidates.
type TopKResult struct {
	// Points are this node's k largest-norm locations, descending by norm.
	Points    []query.ResultPoint
	Breakdown Breakdown
}

// minHeap keeps the k best-ranked points seen so far (the root is the
// worst-ranked point retained).
type minHeap []query.ResultPoint

func (h minHeap) Len() int            { return len(h) }
func (h minHeap) Less(i, j int) bool  { return query.RanksBefore(h[j], h[i]) }
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
			} else if query.RanksBefore(pt, (*h)[0]) {
				(*h)[0] = pt
				heap.Fix(h, 0)
			}
		}
		return true
	}
}

// ranked is every point the workers retain, best first.
func (m *topKMember) ranked() []query.ResultPoint {
	var pts []query.ResultPoint
	for _, h := range m.heaps {
		pts = append(pts, *h...)
	}
	sort.Slice(pts, func(i, j int) bool { return query.RanksBefore(pts[i], pts[j]) })
	return pts
}

func (m *topKMember) finish() error {
	m.pts = m.ranked()
	if len(m.pts) > m.q.K {
		m.pts = m.pts[:m.q.K]
	}
	return nil
}

// topKLead sets the first round of a top-k walk: beside the atoms whose
// maximum it does not know, it evaluates one atom of known maximum, the
// largest first, per topKLead points of k. A constant, not a knob: on the
// benchmark's 64³ data every node's top 100 sit in 5 to 22 of its 128
// atoms, and the second round makes the answer exact whatever the first
// one found, so the constant moves only the cost.
const topKLead = 4

// topKWalk is the scan of a lone top-k member on a node that keeps a
// synopsis: threshold-style early termination over the atoms' learned
// maxima, in at most two evalPhases rounds.
//
//  1. Round 1 evaluates the atoms whose maximum is unknown or NaN, and the
//     ⌈k/4⌉ of known maximum with the largest maxima.
//  2. Round 2 evaluates every other atom whose maximum, as a float32, is
//     not strictly below the k-th value the workers hold; all of them when
//     round 1 found fewer than k points. An atom strictly below can hold no
//     answer; an atom at the k-th value can, with a smaller Morton code.
//
// The atoms neither round evaluates are the breakdown's AtomsPruned. With
// no atom of known maximum it is one pass over the box, as a scan without
// a synopsis makes.
func (n *Node) topKWalk(ctx context.Context, p *sim.Proc, ps *pass, scan []morton.Range, m *topKMember) (Breakdown, error) {
	all, err := n.scanAtomsCovering(ps.qbox, scan)
	if err != nil {
		return Breakdown{}, err
	}
	type known struct {
		code morton.Code
		max  float64
	}
	var first []morton.Code
	var byMax []known
	for _, c := range all {
		if max, ok := ps.syn.known(c); ok && !math.IsNaN(max) {
			byMax = append(byMax, known{c, max})
		} else {
			first = append(first, c)
		}
	}
	slices.SortFunc(byMax, func(a, b known) int {
		if c := cmp.Compare(b.max, a.max); c != 0 {
			return c
		}
		return cmp.Compare(a.code, b.code)
	})
	lead := min((m.q.K+topKLead-1)/topKLead, len(byMax))
	for _, a := range byMax[:lead] {
		first = append(first, a.code)
	}
	slices.Sort(first)
	rest := byMax[lead:]

	bd, err := n.evalPhases(ctx, p, ps, first, len(rest))
	if err != nil || len(rest) == 0 {
		return bd, err
	}
	pts := m.ranked()
	var second []morton.Code
	for _, a := range rest {
		if len(pts) < m.q.K || !query.Outranked(a.max, pts[m.q.K-1]) {
			second = append(second, a.code)
		}
	}
	slices.Sort(second)
	bd.AtomsPruned = len(rest) - len(second)
	if len(second) == 0 {
		return bd, nil
	}
	round, err := n.evalPhases(ctx, p, ps, second, bd.AtomsPruned)
	bd.Add(round)
	return bd, err
}

// GetTopK returns this node's k largest field norms within the query box.
// The mediator merges per-node candidate lists into the global top-k. A
// derived norm is a kernel over a neighbourhood, so no bound on it follows
// from the raw data, and a first touch evaluates the whole shard into a
// k-sized heap. But every scan teaches the node's synopsis the exact
// maximum of the atoms it evaluates, and with those a top-k stops early:
// it evaluates the atoms that may hold its answer, not all of them (see
// topKWalk).
func (n *Node) GetTopK(ctx context.Context, p *sim.Proc, q query.TopK) (*TopKResult, error) {
	domain := n.Grid().Domain()
	q = q.Normalize(domain)
	if err := q.Validate(domain); err != nil {
		return nil, err
	}
	m := &topKMember{q: q}
	o, err := n.scanOne(ctx, p, scanKey{q.Dataset, q.Field, q.FDOrder, q.Timestep, q.Scan}, m)
	if err != nil {
		return nil, err
	}
	return &TopKResult{Points: m.pts, Breakdown: o.bd}, nil
}
