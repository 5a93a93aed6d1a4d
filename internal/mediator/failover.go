package mediator

import (
	"context"
	"fmt"
	"sort"
	"time"

	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/netmodel"
	"github.com/turbdb/turbdb/internal/obs"
	"github.com/turbdb/turbdb/internal/sim"
)

// Failover metrics: how often a Morton range was re-routed to a replica
// after its primary failed, and the routing-table version in effect.
var (
	mReroutes    = obs.Default().Counter("turbdb_failover_reroutes_total")
	mTopoVersion = obs.Default().Gauge("turbdb_topology_version")
)

// Topology is the mediator's routing table under k-way placement: the
// Morton ranges of the current placement and, per range, the nodes holding
// it (primary first). Derived from membership.Placement by cluster
// assembly and installed atomically via UpdateTopology on every rebalance,
// or synthesised by New as the k = 1 table of an unreplicated cluster.
type Topology struct {
	// Version identifies the placement (bumped on every rebalance).
	Version uint64
	// Ranges are the placement's contiguous Morton ranges.
	Ranges []morton.Range
	// Owners[i] lists the node ids holding Ranges[i], primary first.
	Owners [][]int
}

// clone deep-copies the topology so callers cannot mutate installed state.
func (t Topology) clone() Topology {
	out := Topology{Version: t.Version}
	out.Ranges = append([]morton.Range(nil), t.Ranges...)
	out.Owners = make([][]int, len(t.Owners))
	for i, o := range t.Owners {
		out.Owners[i] = append([]int(nil), o...)
	}
	return out
}

// errReplicasDown reports a range whose every replica was unavailable
// before any RPC could be attempted (all owners down or unregistered). It
// is an availability failure, so partial mode may degrade around it.
type errReplicasDown struct{ ri int }

func (e errReplicasDown) Error() string {
	return fmt.Sprintf("mediator: no live replica for range %d", e.ri)
}

// Transient marks the failure as availability-class.
func (e errReplicasDown) Transient() bool { return true }

// peer is one registered node: its client, the range it scans when a
// request carries no Scan, and the transport the fan-out reaches it over.
type peer struct {
	client NodeClient
	owned  morton.Range       // the node's default scan, as it described itself
	ft     *faulttol.Executor // retry policy and breaker; nil in simulation mode
	link   *netmodel.Link     // mediator↔node transfers; nil in real mode
}

// routing is the state a fan-out routes by: the placement table and the
// registered nodes. A published value is immutable — UpdateTopology and
// RegisterNode install a modified copy — so the one pointer a query loads
// is a consistent view for all its rounds and a concurrent rebalance never
// splits one fan-out across two placements.
type routing struct {
	topo  Topology
	peers map[int]*peer
}

// routing returns the routing state in effect.
func (m *Mediator) routing() *routing {
	m.topoMu.Lock()
	defer m.topoMu.Unlock()
	return m.route
}

// newPeer builds the routing entry for node id; in real mode the node gets
// its own breaker and retry executor.
func (m *Mediator) newPeer(id int, c NodeClient, owned morton.Range, link *netmodel.Link) *peer {
	pr := &peer{client: c, owned: owned, link: link}
	if m.kernel == nil {
		pr.ft = m.newExecutor(id)
	}
	return pr
}

// UpdateTopology atomically installs a new routing table (a rebalance
// flip). Queries already in flight finish on the placement they started
// with; every owner must already be registered.
func (m *Mediator) UpdateTopology(t Topology) error {
	if m.members == nil {
		return faulttol.Permanent("mediator: not assembled with a topology")
	}
	return m.setTopology(t)
}

// setTopology validates t against the registered nodes and publishes it.
func (m *Mediator) setTopology(t Topology) error {
	if len(t.Ranges) != len(t.Owners) {
		return faulttol.Permanentf("mediator: topology has %d ranges but %d owner lists", len(t.Ranges), len(t.Owners))
	}
	m.topoMu.Lock()
	defer m.topoMu.Unlock()
	for ri, owners := range t.Owners {
		if len(owners) == 0 && !t.Ranges[ri].Empty() {
			return faulttol.Permanentf("mediator: range %d has no owners", ri)
		}
		for _, id := range owners {
			if m.route.peers[id] == nil {
				return faulttol.Permanentf("mediator: topology owner %d of range %d is not registered", id, ri)
			}
		}
	}
	m.route = &routing{topo: t.clone(), peers: m.route.peers}
	mTopoVersion.Set(int64(t.Version))
	return nil
}

// RegisterNode adds (or replaces) a node client — a joining node is
// registered before the topology referencing it is installed. In
// simulation mode link carries its mediator↔node transfers. ctx bounds the
// validation round-trip to the node.
func (m *Mediator) RegisterNode(ctx context.Context, id int, c NodeClient, link *netmodel.Link) error {
	if m.members == nil {
		return faulttol.Permanent("mediator: not assembled with a topology")
	}
	d, err := c.Describe(ctx)
	if err != nil {
		return fmt.Errorf("mediator: node %d unreachable: %w", id, err)
	}
	if d.Dataset != m.dataset {
		return faulttol.Permanentf("mediator: node %d serves dataset %q, not %q", id, d.Dataset, m.dataset)
	}
	pr := m.newPeer(id, c, d.Owned, link)
	m.topoMu.Lock()
	defer m.topoMu.Unlock()
	peers := make(map[int]*peer, len(m.route.peers)+1)
	for k, v := range m.route.peers {
		peers[k] = v
	}
	peers[id] = pr
	m.route = &routing{topo: m.route.topo, peers: peers}
	return nil
}

// clientList returns the management fan-out targets (DropCache,
// SetProcesses): the registered clients in id order.
func (m *Mediator) clientList() []NodeClient {
	rt := m.routing()
	ids := make([]int, 0, len(rt.peers))
	for id := range rt.peers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]NodeClient, len(ids))
	for i, id := range ids {
		out[i] = rt.peers[id].client
	}
	return out
}

// breakerState reports node id's circuit-breaker state (Closed for an
// unregistered node and in simulation mode, where breakers are disabled).
func (rt *routing) breakerState(id int) faulttol.State {
	if pr := rt.peers[id]; pr != nil && pr.ft != nil {
		return pr.ft.Breaker.State()
	}
	return faulttol.Closed
}

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
	rt := m.routing()
	t := rt.topo

	var (
		answers []T
		total   uint64 // cells across the non-empty ranges
	)
	// An owner whose breaker is open is tried after every other.
	breakerOpen := func(id int) bool { return rt.breakerState(id) == faulttol.Open }
	ris := make([]int, 0, len(t.Ranges)) // the non-empty ranges, by index into t.Ranges
	holders := make([][]int, 0, len(t.Ranges))
	for i, r := range t.Ranges {
		if r.Empty() {
			continue
		}
		total += r.CellCount()
		ris = append(ris, i)
		holders = append(holders, m.members.FailoverOrder(t.Owners[i], breakerOpen))
	}

	round := 0
	spent, reroutes, err := faulttol.Failover(holders, func(groups []faulttol.Group) []error {
		results := make([]T, len(groups))
		errs := make([]error, len(groups))
		m.exec.Fork(p, len(groups), func(gi int, wp *sim.Proc) {
			g := groups[gi]
			pr := rt.peers[g.Holder]
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
	if total > 0 {
		stats.Coverage = 1 - float64(missing)/float64(total)
	} else {
		// Degenerate topology (unknown ranges): fall back to range counts.
		stats.Coverage = 1 - float64(len(failures))/float64(ranges)
	}
	stats.Failures = failures
	return nil
}
