package mediator

// Shared-scan batch fan-out: several concurrent threshold queries over the
// same (field, order, step) are pushed to the nodes as ONE request per node,
// evaluated there in one pass over the union of their boxes, and fanned back
// out per query. The scheduler (internal/sched) decides WHAT to batch; this
// file implements HOW a batch crosses the cluster. A lone threshold query is
// a batch of one through the same procedure, so a batch re-routes per range
// exactly like a single query does.

import (
	"context"

	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/node"
	"github.com/turbdb/turbdb/internal/obs"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sim"
)

// BatchNodeClient is NodeClient under the name of the optional extension
// GetThresholdBatch used to be; code written against that name still
// compiles.
type BatchNodeClient = NodeClient

// BatchAnswer is one member's result of a batched fan-out: exactly the
// (points, stats, error) triple the member's solo Threshold call would have
// returned. Stats.Failures and Coverage are shared across members (the
// batch saw one cluster state); Stats.ScansSaved and SharedScan are
// per-member.
type BatchAnswer struct {
	Points []query.ResultPoint
	Stats  *QueryStats
	Err    error
}

// ThresholdBatch evaluates several threshold queries over the same (field,
// order, step) in one fan-out: each node sees the whole batch once and
// shares a scan across the members. Answers come back per member and are
// bit-for-bit identical to what the equivalent solo Threshold calls would
// have produced (see the sched differential tests). The returned slice is
// indexed like qs; a batch-wide failure (validation, every replica of a
// range down in strict mode) is the call's error instead.
func (m *Mediator) ThresholdBatch(ctx context.Context, p *sim.Proc, qs []query.Threshold) ([]BatchAnswer, error) {
	if len(qs) == 0 {
		return nil, faulttol.Permanent("mediator: empty threshold batch")
	}
	ctx, qsp := obs.StartSpan(ctx, "threshold_batch")
	defer qsp.End()
	answers := make([]BatchAnswer, len(qs))
	if err := m.thresholds(ctx, p, append([]query.Threshold(nil), qs...), answers); err != nil {
		return nil, err
	}
	return answers, nil
}

// nodeThresholds is one node's answer to a threshold batch: one when the
// batch has a single member (asked with GetThreshold), batch otherwise.
type nodeThresholds struct {
	one   *node.ThresholdResult
	batch *node.ThresholdBatchResult
}

// member returns member j's share of the answer.
func (a nodeThresholds) member(j int) (*node.ThresholdResult, error) {
	if a.batch == nil {
		return a.one, nil
	}
	if j >= len(a.batch.Results) {
		return nil, faulttol.Permanentf("mediator: node batch answer has %d members, lacks member %d", len(a.batch.Results), j)
	}
	return a.batch.Results[j], a.batch.Errs[j]
}

// points is the modeled response size of an n-member answer, in points.
func (a nodeThresholds) points(n int) int {
	total := 0
	for j := 0; j < n; j++ {
		if r, err := a.member(j); err == nil && r != nil {
			total += len(r.Points)
		}
	}
	return total
}

// thresholds is the one threshold procedure: plan, fan out, merge each
// member, deliver each member. It normalizes qs in place and fills
// answers, which is indexed like qs. A node is asked with GetThreshold when
// the batch has one member, so a lone query's requests, and what the
// mediator allocates for them, are the solo ones; with GetThresholdBatch
// otherwise.
func (m *Mediator) thresholds(ctx context.Context, p *sim.Proc, qs []query.Threshold, answers []BatchAnswer) error {
	_, psp := obs.StartSpan(ctx, "plan")
	domain := m.grid.Domain()
	for i := range qs {
		qs[i] = qs[i].Normalize(domain)
		if err := qs[i].Validate(domain); err != nil {
			psp.End()
			mQueryErrs.Add(int64(len(qs)))
			return err
		}
		if i > 0 && qs[i].BatchKey() != qs[0].BatchKey() {
			psp.End()
			mQueryErrs.Add(int64(len(qs)))
			return faulttol.Permanentf("mediator: batch member %d disagrees with member 0 on (dataset, field, order, step)", i)
		}
	}
	psp.End()

	start := m.exec.Now()
	// cov is the batch-wide availability picture (coverage, failures,
	// reroutes) every member's stats share.
	cov := &QueryStats{Trace: obs.TraceFrom(ctx)}
	results, fanout, err := fanoutReplicated(m, ctx, p, cov, func(ctx context.Context, wp *sim.Proc, cli NodeClient, scan []morton.Range) (nodeThresholds, int, error) {
		var a nodeThresholds
		var err error
		if len(qs) == 1 {
			q := qs[0]
			q.Scan = scan
			a.one, err = cli.GetThreshold(ctx, wp, q)
		} else {
			qq := make([]query.Threshold, len(qs))
			for i := range qs {
				qq[i] = qs[i]
				qq[i].Scan = scan
			}
			a.batch, err = cli.GetThresholdBatch(ctx, wp, qq)
		}
		if err != nil {
			return a, 0, err
		}
		return a, query.WireBytes(a.points(len(qs))), nil
	})
	if err != nil {
		mQueryErrs.Add(int64(len(qs)))
		return err
	}

	_, msp := obs.StartSpan(ctx, "merge")
	shared := *cov
	for j := range qs {
		st := cov // member 0 keeps cov; the others start from a copy of it
		if j > 0 {
			st = &QueryStats{}
			*st = shared
		}
		pts, err := mergeMember(st, results, qs, j)
		if err != nil {
			mQueryErrs.Inc()
			answers[j] = BatchAnswer{Err: err}
			continue
		}
		st.Points = len(pts)
		answers[j] = BatchAnswer{Points: pts, Stats: st}
	}
	msp.End()
	for _, a := range answers {
		if a.Err == nil {
			m.deliver(ctx, p, a.Stats, fanout, start, query.WireBytes(len(a.Points)))
		}
	}
	return nil
}

// mergeMember folds member j's share of every node's batch answer into its
// stats and merges its points, enforcing the member's result limit. Each
// answer covers its Morton ranges exactly once, so no cell is counted
// twice; re-routed scans make one node's answer span several disjoint
// ranges, so the k-way merge (merge.go) does real interleaving.
func mergeMember(st *QueryStats, results []nodeThresholds, qs []query.Threshold, j int) ([]query.ResultPoint, error) {
	parts := make([][]query.ResultPoint, 0, len(results))
	total := 0
	for _, a := range results {
		r, err := a.member(j)
		if err != nil {
			return nil, err
		}
		parts = append(parts, r.Points)
		total += len(r.Points)
		st.NodeCritical.Max(r.Breakdown)
		if r.FromCache {
			st.CacheHits++
		}
		if r.Shared > 1 {
			st.SharedScan = true
		}
		st.ScansSaved += r.ScansSaved
		st.ResponseBytes += query.WireBytes(len(r.Points))
	}
	if total > qs[j].Limit {
		return nil, &query.ErrTooManyPoints{Limit: qs[j].Limit, Seen: total}
	}
	return mergeSortedPoints(parts), nil
}
