package mediator

// Shared-scan batch fan-out: several concurrent threshold queries over the
// same (field, order, step) are pushed to the nodes as ONE request per node,
// evaluated there in one pass over the union of their boxes, and fanned back
// out per query. The scheduler (internal/sched) decides WHAT to batch; this
// file implements HOW a batch crosses the cluster — reusing the replica
// failover machinery so a batch re-routes per range exactly like a single
// query does.

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

// batchCompatible reports whether two normalized members may share a scan.
// Scan is not compared: the mediator assigns it per node.
func batchCompatible(a, b query.Threshold) bool {
	return a.Dataset == b.Dataset && a.Field == b.Field &&
		a.FDOrder == b.FDOrder && a.Timestep == b.Timestep
}

// batchPoints is the modeled response size of one node's batch answer.
func batchPoints(r *node.ThresholdBatchResult) int {
	total := 0
	for _, rr := range r.Results {
		if rr != nil {
			total += len(rr.Points)
		}
	}
	return total
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
	_, psp := obs.StartSpan(ctx, "plan")
	domain := m.Grid().Domain()
	nqs := make([]query.Threshold, len(qs))
	for i, q := range qs {
		nqs[i] = q.Normalize(domain)
		if err := nqs[i].Validate(domain); err != nil {
			psp.End()
			mQueryErrs.Add(int64(len(qs)))
			return nil, err
		}
		if i > 0 && !batchCompatible(nqs[0], nqs[i]) {
			psp.End()
			mQueryErrs.Add(int64(len(qs)))
			return nil, faulttol.Permanentf("mediator: batch member %d disagrees with member 0 on (field, order, step)", i)
		}
	}
	psp.End()

	start := m.exec.Now()
	// cov is the batch-wide availability picture (coverage, failures,
	// reroutes) every member's stats share.
	cov := &QueryStats{}
	results, fanout, err := fanoutReplicated(m, ctx, p, cov, func(ctx context.Context, wp *sim.Proc, cli NodeClient, scan []morton.Range) (*node.ThresholdBatchResult, int, error) {
		qq := make([]query.Threshold, len(nqs))
		for i := range nqs {
			qq[i] = nqs[i]
			qq[i].Scan = scan
		}
		r, err := cli.GetThresholdBatch(ctx, wp, qq)
		if err != nil {
			return nil, 0, err
		}
		return r, query.WireBytes(batchPoints(r)), nil
	})
	if err != nil {
		mQueryErrs.Add(int64(len(nqs)))
		return nil, err
	}

	_, msp := obs.StartSpan(ctx, "merge")
	defer msp.End()
	answers := make([]BatchAnswer, len(nqs))
	for j := range nqs {
		st := &QueryStats{
			Trace:       obs.TraceFrom(ctx),
			Coverage:    cov.Coverage,
			Failures:    cov.Failures,
			Reroutes:    cov.Reroutes,
			NodeAnswers: cov.NodeAnswers,
		}
		pts, err := mergeMember(st, results, nqs, j)
		if err != nil {
			mQueryErrs.Inc()
			answers[j] = BatchAnswer{Err: err}
			continue
		}
		st.MediatorDBComm = max(fanout-st.NodeCritical.Total, 0)
		st.Points = len(pts)
		st.Total = m.exec.Now() - start
		m.noteQuery(st)
		answers[j] = BatchAnswer{Points: pts, Stats: st}
	}
	return answers, nil
}

// mergeMember merges member j's share of every node's batch answer, exactly
// as the member's solo Threshold call merges its node answers.
func mergeMember(st *QueryStats, results []*node.ThresholdBatchResult, nqs []query.Threshold, j int) ([]query.ResultPoint, error) {
	member := make([]*node.ThresholdResult, len(results))
	for i, r := range results {
		if j >= len(r.Results) {
			return nil, faulttol.Permanentf("mediator: node batch answer has %d members, want %d", len(r.Results), len(nqs))
		}
		if r.Errs[j] != nil {
			return nil, r.Errs[j]
		}
		member[i] = r.Results[j]
	}
	return mergeThreshold(st, member, nqs[j].Limit)
}
