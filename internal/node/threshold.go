package node

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"github.com/turbdb/turbdb/internal/cache"
	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sim"
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
	// produced this answer: 0 for a solo evaluation (a batch of one), else
	// the batch members the cache missed.
	Shared int
	// ScansSaved counts the atom scans this query avoided because the pass
	// was shared: the atoms a solo evaluation would have scanned (after the
	// synopsis pruned) minus this query's share of the union pass.
	ScansSaved int
}

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
	// (0 when all members hit the cache, and for a batch of one).
	AtomsScanned int
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

// thresholdMember is the paper's threshold query as a scan member: the
// points of its box whose norm is ≥ its threshold, at most q.Limit of them.
// The cache entry it looks up and stores is Algorithm 1's: an entry whose
// region contains the box and whose threshold is ≤ the requested one
// answers it by an index scan.
type thresholdMember struct {
	q     query.Threshold
	parts [][]query.ResultPoint // per worker
	total atomic.Int64          // points found by every worker; past q.Limit the member is done
	pts   []query.ResultPoint
}

func (m *thresholdMember) pred() atomPred { return atomPred{m.q.Box, m.q.Threshold} }

func (m *thresholdMember) consumer() rowConsumer {
	w := len(m.parts)
	m.parts = append(m.parts, nil)
	return func(p grid.Point, norms []float64) bool {
		if int(m.total.Load()) > m.q.Limit {
			return false
		}
		lo, hi := rowSpan(m.q.Box, p, len(norms))
		for i := lo; i < hi; i++ {
			if norms[i] >= m.q.Threshold {
				m.parts[w] = append(m.parts[w], query.PointFor(p.Add(i, 0, 0), norms[i]))
				if int(m.total.Add(1)) > m.q.Limit {
					return false
				}
			}
		}
		return true
	}
}

// finish fails with *query.ErrTooManyPoints over the limit; nothing is then
// cached.
func (m *thresholdMember) finish() error {
	for _, part := range m.parts {
		m.pts = append(m.pts, part...)
	}
	if len(m.pts) > m.q.Limit {
		return &query.ErrTooManyPoints{Limit: m.q.Limit, Seen: len(m.pts)}
	}
	// A cache hit arrives in code order already; a miss's worker parts do
	// not. Codes are unique, so an unstable sort is the one order.
	byCode := func(a, b query.ResultPoint) int { return cmp.Compare(a.Code, b.Code) }
	if !slices.IsSortedFunc(m.pts, byCode) {
		slices.SortFunc(m.pts, byCode)
	}
	return nil
}

func (m *thresholdMember) lookup(p *sim.Proc, c *cache.Cache, dataset, key string, step int) (ok bool, err error) {
	m.pts, ok, err = c.Lookup(p, dataset, key, step, m.q.Threshold, m.q.Box)
	return ok, err
}

func (m *thresholdMember) store(p *sim.Proc, c *cache.Cache, dataset, key string, step int) error {
	return c.Store(p, dataset, key, step, m.q.Threshold, m.q.Box, m.pts)
}

// GetThreshold evaluates a threshold query over this node's shard of the
// data, implementing the paper's Algorithm 1 (see Node.scan) as a batch of
// one. A query that would return more than q.Limit points fails with
// *query.ErrTooManyPoints, and nothing is cached.
func (n *Node) GetThreshold(ctx context.Context, p *sim.Proc, q query.Threshold) (*ThresholdResult, error) {
	res, err := n.GetThresholdBatch(ctx, p, []query.Threshold{q})
	if err != nil {
		return nil, err
	}
	return res.Results[0], res.Errs[0]
}

// GetThresholdBatch evaluates several threshold queries over the same
// (dataset, field, FD order, time-step, scan) in ONE pass over the union of
// their boxes — the shared-scan entry point behind the mediator scheduler's
// batching window. Every member gets exactly the points, in the same order,
// that it would have got alone. The cache keeps its usual role: members
// whose answer is already cached are served from it and excluded from the
// scan; members evaluated by the scan are stored back individually, so a
// batch warms the cache exactly like the equivalent solo queries would have.
func (n *Node) GetThresholdBatch(ctx context.Context, p *sim.Proc, qs []query.Threshold) (*ThresholdBatchResult, error) {
	if len(qs) == 0 {
		return nil, faulttol.Permanent("node: empty threshold batch")
	}
	domain := n.Grid().Domain()
	ms := make([]member, len(qs))
	var q0 query.Threshold
	for i, q := range qs {
		q = q.Normalize(domain)
		if err := q.Validate(domain); err != nil {
			return nil, err
		}
		if i == 0 {
			q0 = q
		} else if q.Dataset != q0.Dataset || q.Field != q0.Field || q.FDOrder != q0.FDOrder ||
			q.Timestep != q0.Timestep || !slices.Equal(q.Scan, q0.Scan) {
			return nil, faulttol.Permanentf("node: batch member %d disagrees with member 0 on (dataset, field, order, step, scan)", i)
		}
		ms[i] = &thresholdMember{q: q}
	}
	out, atomsScanned, err := n.scan(ctx, p, scanKey{q0.Dataset, q0.Field, q0.FDOrder, q0.Timestep, q0.Scan}, ms)
	if err != nil {
		return nil, err
	}
	res := &ThresholdBatchResult{Results: make([]*ThresholdResult, len(qs)), Errs: make([]error, len(qs)), AtomsScanned: atomsScanned}
	for i, o := range out {
		if res.Errs[i] = o.err; o.err == nil {
			res.Results[i] = &ThresholdResult{
				Points: ms[i].(*thresholdMember).pts, FromCache: o.fromCache,
				Breakdown: o.bd, Shared: o.shared, ScansSaved: o.scansSaved,
			}
		}
	}
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
	if n.cache != nil {
		n.cache.Drop(n.dataset, base, step)
	}
	return nil
}
