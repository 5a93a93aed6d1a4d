package mediator

import (
	"context"
	"fmt"
	"sort"
	"time"

	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/membership"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/netmodel"
	"github.com/turbdb/turbdb/internal/obs"
	"github.com/turbdb/turbdb/internal/sim"
)

// mReroutes counts the Morton ranges re-routed to a replica after their
// primary failed.
var mReroutes = obs.Default().Counter("turbdb_failover_reroutes_total")

// errReplicasDown reports a range whose every replica was unavailable
// before any RPC could be attempted (no owner left to try). It is an
// availability failure, so partial mode may degrade around it.
type errReplicasDown struct{ ri int }

func (e errReplicasDown) Error() string {
	return fmt.Sprintf("mediator: no live replica for range %d", e.ri)
}

// Transient marks the failure as availability-class.
func (e errReplicasDown) Transient() bool { return true }

// peer is one node: its client, the range it scans when a request carries
// no Scan, and the transport the fan-out reaches it over.
type peer struct {
	client NodeClient
	owned  morton.Range       // the node's default scan, as it described itself
	ft     *faulttol.Executor // retry policy and breaker; nil in simulation mode
	link   *netmodel.Link     // mediator↔node transfers; nil in real mode
}

// tiles checks that the non-empty ranges cover domain exactly once: a gap
// would answer short and an overlap would answer cells twice, both with
// Coverage 1.
func tiles(ranges []morton.Range, domain morton.Range) error {
	var rs []morton.Range
	for _, r := range ranges {
		if !r.Empty() {
			rs = append(rs, r)
		}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].Lo < rs[j].Lo })
	next := domain.Lo
	for _, r := range rs {
		if r.Lo > next {
			return faulttol.Permanentf("mediator: no topology range covers atoms [%d, %d)", next, r.Lo)
		}
		if r.Lo < next {
			return faulttol.Permanentf("mediator: topology ranges overlap at atom %d", r.Lo)
		}
		next = r.Hi
	}
	if next != domain.Hi {
		return faulttol.Permanentf("mediator: topology ranges end at atom %d, not at the domain's end %d", next, domain.Hi)
	}
	return nil
}

// Topology returns the routing table. It is shared: callers must not
// modify it.
func (m *Mediator) Topology() membership.Placement { return m.topo }

// fanoutReplicated runs one query's fan-out: every non-empty topology range
// is routed to its first live owner, ranges are grouped per node into one
// RPC, and on a transient (or retries-exhausted) failure the affected
// ranges advance to their next replica in further rounds (faulttol.Failover
// runs the rounds). call issues the RPC and reports the modeled size of the
// response. A request carries a Scan only when the routed set differs from
// the node's default: a group that is exactly the range the node described
// as Owned is sent with none, so the node's whole-shard cache keys are
// shared by every placement that routes it its own shard — k = 1 above all.
//
// The successful answers are returned with the fan-out's duration; each
// covers one or more ranges exactly once, so merging them never
// double-counts a cell. A range every replica was down for is folded into
// stats by collectRangeFailures (coverage in partial mode, the query's
// error in strict mode); a non-transient error fails the whole query.
func fanoutReplicated[T any](
	m *Mediator,
	ctx context.Context,
	p *sim.Proc,
	stats *QueryStats,
	call func(ctx context.Context, wp *sim.Proc, cli NodeClient, scan []morton.Range) (T, int, error),
) ([]T, time.Duration, error) {
	start := m.exec.Now()
	t := m.topo

	var (
		answers []T
		total   uint64 // cells across the non-empty ranges
	)
	ris := make([]int, 0, len(t.Ranges)) // the non-empty ranges, by index into t.Ranges
	holders := make([][]int, 0, len(t.Ranges))
	for i, r := range t.Ranges {
		if r.Empty() {
			continue
		}
		total += r.CellCount()
		ris = append(ris, i)
		holders = append(holders, faulttol.HealthOrder(t.Owners[i], m.BreakerState))
	}

	round := 0
	spent, reroutes, err := faulttol.Failover(holders, func(groups []faulttol.Group) []error {
		results := make([]T, len(groups))
		errs := make([]error, len(groups))
		m.exec.Fork(p, len(groups), func(gi int, wp *sim.Proc) {
			g := groups[gi]
			pr := m.peers[g.Holder]
			name := fmt.Sprintf("node[%d]", g.Holder)
			if round > 0 {
				name = fmt.Sprintf("failover[%d]", g.Holder)
			}
			nctx, nsp := obs.StartSpan(ctx, name)
			defer nsp.End()
			var scan []morton.Range
			if len(g.Keys) != 1 || t.Ranges[ris[g.Keys[0]]] != pr.owned {
				for _, k := range g.Keys {
					scan = append(scan, t.Ranges[ris[k]])
				}
				// Canonical scan order keeps node-side cache keys stable across
				// rounds and placements.
				sort.Slice(scan, func(i, j int) bool { return scan[i].Lo < scan[j].Lo })
			}
			if pr.link != nil {
				pr.link.Transfer(wp, RequestWireBytes)
			}
			var respBytes int
			errs[gi] = pr.ft.Do(nctx, func(c context.Context) error { // a nil ft makes one plain call
				var err error
				results[gi], respBytes, err = call(c, wp, pr.client, scan)
				return err
			})
			if pr.link != nil && errs[gi] == nil {
				pr.link.Transfer(wp, respBytes)
			}
		})
		round++
		for gi, err := range errs {
			if err == nil {
				answers = append(answers, results[gi])
			} else if !faulttol.Transient(err) {
				errs[gi] = fmt.Errorf("mediator: node %d: %w", groups[gi].Holder, err)
			}
		}
		return errs
	})
	if err != nil {
		return nil, 0, err
	}
	fanout := m.exec.Now() - start
	stats.Reroutes += reroutes
	mReroutes.Add(int64(reroutes))
	failed := make([]NodeFailure, len(spent))
	for i, s := range spent {
		if s.Err == nil {
			s.Err = errReplicasDown{ri: ris[s.Key]}
		}
		failed[i] = NodeFailure{Node: s.Holder, Owned: t.Ranges[ris[s.Key]], Err: s.Err}
	}
	if err := m.collectRangeFailures(failed, total, len(ris), stats); err != nil {
		return nil, 0, err
	}
	stats.NodeAnswers = len(answers)
	return answers, fanout, nil
}

// collectRangeFailures folds the ranges every replica was down for into
// stats. Strict mode (or a non-degradable failure) fails the query; partial
// mode computes coverage from the missing cells. A replica absorbing a
// primary failure never reaches this function — the range simply is not in
// failures and coverage stays 1.
func (m *Mediator) collectRangeFailures(failures []NodeFailure, total uint64, ranges int, stats *QueryStats) error {
	stats.Coverage = 1
	if len(failures) == 0 {
		return nil
	}
	for _, f := range failures {
		if !m.allowPartial || !faulttol.Transient(f.Err) {
			return fmt.Errorf("mediator: node %d: %w", f.Node, f.Err)
		}
	}
	if len(failures) == ranges {
		return fmt.Errorf("mediator: all %d ranges failed on every replica, first: %w", ranges, failures[0].Err)
	}
	var missing uint64
	for _, f := range failures {
		missing += f.Owned.CellCount()
	}
	stats.Coverage = 1 - float64(missing)/float64(total)
	stats.Failures = failures
	return nil
}
