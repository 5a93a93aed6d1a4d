// Package mediator implements the front-end Web-server role of the paper's
// architecture (Fig. 1 and Fig. 5): it receives user queries, breaks each
// one into parts according to the spatial partitioning of the data,
// submits the parts asynchronously to the database nodes, assembles the
// distributed results, and returns them to the user.
//
// The mediator also produces the query-time accounting the paper's Fig. 9
// breakdowns report: per-phase node times (cache lookup, I/O, compute) on
// the cluster critical path, mediator↔DB communication, and mediator↔user
// communication — both of which grow proportionally to the result size.
//
// On a real cluster the mediator must survive slow and dead nodes. Every
// node RPC runs under a per-node circuit breaker and a retry policy with
// exponential backoff whose budget never exceeds the caller's context
// deadline. When a node stays unreachable, strict mode (the default)
// fails the query with the node's error; partial mode (Config.
// AllowPartial) answers from the surviving nodes and annotates QueryStats
// with the fraction of the Morton space that was actually scanned.
package mediator

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/membership"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/netmodel"
	"github.com/turbdb/turbdb/internal/node"
	"github.com/turbdb/turbdb/internal/obs"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sim"
)

// Process-wide mediator metrics: query throughput and latency, plus the
// degradation picture — how often answers are partial and how much of the
// Morton space they cover when they are.
var (
	mQueries      = obs.Default().Counter("turbdb_mediator_queries_total")
	mQueryErrs    = obs.Default().Counter("turbdb_mediator_query_errors_total")
	mPartialAns   = obs.Default().Counter("turbdb_mediator_partial_answers_total")
	mQuerySeconds = obs.Default().Histogram("turbdb_mediator_query_seconds", obs.DurationBuckets)
	mCoverage     = obs.Default().Histogram("turbdb_mediator_coverage", []float64{0.25, 0.5, 0.75, 0.9, 0.99, 1})
)

// RequestWireBytes is the modeled size of one query request envelope.
const RequestWireBytes = 512

// NodeClient is the mediator's view of one database node. *node.Node
// satisfies it directly; the wire package provides an HTTP-backed
// implementation. Every method — queries and management alike — honors ctx
// cancellation and deadlines.
type NodeClient interface {
	GetThreshold(ctx context.Context, p *sim.Proc, q query.Threshold) (*node.ThresholdResult, error)
	// GetThresholdBatch answers several threshold queries over the same
	// (field, order, step) from one shared scan.
	GetThresholdBatch(ctx context.Context, p *sim.Proc, qs []query.Threshold) (*node.ThresholdBatchResult, error)
	GetPDF(ctx context.Context, p *sim.Proc, q query.PDF) (*node.PDFResult, error)
	GetTopK(ctx context.Context, p *sim.Proc, q query.TopK) (*node.TopKResult, error)
	DropCacheEntry(ctx context.Context, fieldName string, order, step int) error
	SetProcesses(ctx context.Context, p int) error
	Describe(ctx context.Context) (node.Description, error)
}

// Config assembles a Mediator.
type Config struct {
	// Nodes are the database nodes serving this mediator's dataset.
	Nodes []NodeClient
	// Kernel enables simulation mode (asynchronous submission as DES
	// processes, communication charged to links). nil = real mode.
	Kernel *sim.Kernel
	// NodeLinks are per-node mediator↔node links (same length as Nodes);
	// required in simulation mode.
	NodeLinks []*netmodel.Link
	// UserLink is the mediator↔user path; required in simulation mode.
	UserLink *netmodel.Link

	// AllowPartial degrades gracefully when a node stays unreachable
	// after retries: the query is answered from the surviving nodes and
	// QueryStats records Coverage < 1 plus the per-node failures. Strict
	// mode (false, the default) keeps all-or-nothing semantics. Only
	// availability-class (transient) failures are degradable — a node
	// rejecting the query as malformed always fails it.
	AllowPartial bool
	// Retry overrides the per-node retry policy; nil uses
	// faulttol.DefaultPolicy(). Set MaxAttempts to 1 to disable retries.
	Retry *faulttol.Policy
	// Breaker overrides the per-node circuit-breaker tuning; nil uses
	// faulttol defaults.
	Breaker *faulttol.BreakerConfig

	// DescribeCtx bounds the constructor's Describe round-trips; nil
	// means context.Background().
	DescribeCtx context.Context
}

// Mediator is the query front end. Safe for concurrent use in real mode.
type Mediator struct {
	grid     grid.Grid
	dataset  string
	kernel   *sim.Kernel
	userLink *netmodel.Link
	exec     *node.Exec

	allowPartial bool

	// members tracks node health for routing. Breaker transitions feed
	// back into it (open marks the node Suspect, closed
	// marks it Alive).
	members *membership.Table
	policy  faulttol.Policy // retry/breaker tuning, real mode only
	bcfg    faulttol.BreakerConfig

	// route is replaced, never mutated: a query loads the pointer once and
	// runs every round of its fan-out on that value.
	topoMu sync.Mutex
	route  *routing // guarded by topoMu
}

// New validates the config, contacts every node for its description
// (dataset, geometry, held ranges) and builds a Mediator. Node i of Nodes
// is node id i, and the node set is fixed from then on. The mediator routes by the table membership.Describe reads off the nodes'
// holdings — k = 1 when no node holds a replica — and owns a membership
// table of the ids, all Alive. A node that is unreachable at assembly time
// is a constructor error — queries never panic on an unavailable topology.
//
//turbdb:ignore ctxpropagate the Describe round-trips are bounded by cfg.DescribeCtx; a ctx parameter would duplicate the config field
func New(cfg Config) (*Mediator, error) {
	if len(cfg.Nodes) == 0 {
		return nil, faulttol.Permanent("mediator: at least one node required")
	}
	ctx := cfg.DescribeCtx
	if ctx == nil {
		ctx = context.Background()
	}
	descs := make([]node.Description, len(cfg.Nodes))
	ids := make([]int, len(cfg.Nodes))
	held := make([][]morton.Range, len(cfg.Nodes)) // what each node holds, primary first
	for i, n := range cfg.Nodes {
		d, err := n.Describe(ctx)
		if err != nil {
			return nil, fmt.Errorf("mediator: node %d unreachable: %w", i, err)
		}
		descs[i], ids[i], held[i] = d, i, d.Held
		if len(d.Held) == 0 {
			held[i] = []morton.Range{d.Owned}
		}
	}
	ds := descs[0].Dataset
	for _, d := range descs[1:] {
		if d.Dataset != ds {
			return nil, faulttol.Permanentf("mediator: nodes serve different datasets (%q vs %q)", ds, d.Dataset)
		}
	}
	if cfg.Kernel != nil {
		if len(cfg.NodeLinks) != len(cfg.Nodes) {
			return nil, faulttol.Permanentf("mediator: %d node links for %d nodes", len(cfg.NodeLinks), len(cfg.Nodes))
		}
		if cfg.UserLink == nil {
			return nil, faulttol.Permanent("mediator: user link required in simulation mode")
		}
	}
	m := &Mediator{
		grid:         descs[0].Grid,
		dataset:      ds,
		kernel:       cfg.Kernel,
		userLink:     cfg.UserLink,
		exec:         &node.Exec{Kernel: cfg.Kernel},
		allowPartial: cfg.AllowPartial,
		members:      membership.NewTable(ids...),
	}
	m.members.Publish()
	// Fault tolerance runs in real mode only: the simulation models a
	// fault-free cluster on a virtual clock, where wall-clock backoff is
	// meaningless.
	if cfg.Kernel == nil {
		m.policy = faulttol.DefaultPolicy()
		if cfg.Retry != nil {
			m.policy = *cfg.Retry
		}
		if cfg.Breaker != nil {
			m.bcfg = *cfg.Breaker
		}
	}
	// In real mode every node gets its own breaker and retry executor.
	peers := make([]*peer, len(cfg.Nodes))
	for i, n := range cfg.Nodes {
		peers[i] = &peer{client: n, owned: descs[i].Owned}
		if cfg.Kernel != nil {
			peers[i].link = cfg.NodeLinks[i]
		} else {
			peers[i].ft = m.newExecutor(i)
		}
	}
	m.topoMu.Lock()
	m.route = &routing{peers: peers}
	m.topoMu.Unlock()
	if err := m.UpdateTopology(membership.Describe(held)); err != nil {
		return nil, err
	}
	return m, nil
}

// newExecutor builds the retry/breaker executor for one node in real mode.
// The transition hook keeps the per-node breaker state gauge current
// (0 = closed, 1 = open, 2 = half-open) and folds breaker health into the
// membership table: an opening breaker marks the node Suspect
// (de-prioritizing it in replica routing), a closing one marks it Alive
// again.
func (m *Mediator) newExecutor(id int) *faulttol.Executor {
	g := obs.Default().Gauge(fmt.Sprintf("turbdb_breaker_state{node=%q}", fmt.Sprint(id)))
	g.Set(int64(faulttol.Closed))
	members := m.members
	nbcfg := m.bcfg
	nbcfg.OnTransition = func(from, to faulttol.State) {
		g.Set(int64(to))
		switch to {
		case faulttol.Open:
			members.MarkSuspect(id)
		case faulttol.Closed:
			members.MarkAlive(id)
		}
	}
	return &faulttol.Executor{Policy: m.policy, Breaker: faulttol.NewBreaker(nbcfg)}
}

// NodeCount returns the number of nodes.
func (m *Mediator) NodeCount() int { return len(m.routing().peers) }

// Simulated reports whether the mediator runs on a DES kernel (virtual
// time). The concurrent scheduler refuses simulated mediators: its batching
// window and admission queue are wall-clock constructs.
func (m *Mediator) Simulated() bool { return m.kernel != nil }

// Grid returns the dataset geometry (cached at assembly time).
func (m *Mediator) Grid() grid.Grid { return m.grid }

// Dataset returns the dataset name served (cached at assembly time).
func (m *Mediator) Dataset() string { return m.dataset }

// BreakerState reports node i's circuit-breaker state (Closed in
// simulation mode, where breakers are disabled).
func (m *Mediator) BreakerState(i int) faulttol.State { return m.routing().breakerState(i) }

// NodeFailure records one node the mediator degraded around in a partial
// answer.
type NodeFailure struct {
	// Node is the node index within the cluster.
	Node int
	// Owned is the Morton range the node owns — the part of the domain
	// the answer is missing.
	Owned morton.Range
	// Err is the failure after retries (or the open circuit).
	Err error
}

// QueryStats is the cluster-level accounting of one query — the inputs to
// the paper's Fig. 6/8/9 measurements.
type QueryStats struct {
	// Total is the end-to-end time from submission to results delivered to
	// the user (virtual in simulation mode, wall-clock otherwise).
	Total time.Duration
	// NodeCritical is the element-wise maximum of per-node phase times: the
	// cluster critical path through cache lookup, I/O and compute.
	NodeCritical node.Breakdown
	// MediatorDBComm is the fan-out wall time not accounted to node phases:
	// request/response transfers and queueing between mediator and nodes.
	MediatorDBComm time.Duration
	// MediatorUserComm is the time to deliver the result to the user.
	MediatorUserComm time.Duration
	// Points is the result size.
	Points int
	// CacheHits counts nodes that answered from their semantic cache.
	CacheHits int
	// NodeAnswers counts the node answers merged into the result: one per
	// node that served at least one range. The answer came entirely from
	// cache when CacheHits equals it (see FromCache).
	NodeAnswers int
	// ResponseBytes is the total modeled size of node responses.
	ResponseBytes int

	// Coverage is the fraction of the dataset's Morton codes whose owning
	// node contributed to the answer: 1 for a complete answer, < 1 when
	// partial mode degraded around dead nodes.
	Coverage float64
	// Failures lists the nodes the answer is missing (partial mode only;
	// nil for a complete answer). Under replication an entry means every
	// replica of the range was down.
	Failures []NodeFailure
	// Reroutes counts Morton ranges re-routed to a replica after a
	// failure during this query (replicated topologies only).
	Reroutes int

	// QueueWait is the time the query spent in the scheduler's admission
	// queue before execution began; zero when the query ran unscheduled
	// (internal/sched fills it in).
	QueueWait time.Duration
	// SharedScan reports that the query was answered as part of a
	// shared-scan batch: its node-side pass also served other concurrent
	// queries.
	SharedScan bool
	// ScansSaved counts the node-side atom scans this query avoided by
	// sharing a batched pass, summed across nodes.
	ScansSaved int

	// Trace is the query's span tree when the caller attached one to the
	// query context (obs.ContextWithTrace); nil otherwise. The mediator's
	// per-stage spans and every node's stage spans are recorded into it.
	Trace *obs.Trace
}

// Partial reports whether this answer is missing part of the domain.
func (s *QueryStats) Partial() bool { return len(s.Failures) > 0 }

// FromCache reports whether every node answer merged into a threshold or
// PDF result was served from the node's semantic cache.
func (s *QueryStats) FromCache() bool { return s.CacheHits == s.NodeAnswers }

// Threshold evaluates a threshold query across the cluster: the query is
// submitted to the nodes owning the data asynchronously, per-node results
// are merged and ordered, the global result limit is enforced, and the
// result is delivered to the user. ctx bounds the whole fan-out, including
// retries. It is a batch of one through ThresholdBatch's procedure.
func (m *Mediator) Threshold(ctx context.Context, p *sim.Proc, q query.Threshold) ([]query.ResultPoint, *QueryStats, error) {
	ctx, qsp := obs.StartSpan(ctx, "threshold")
	defer qsp.End()
	var a [1]BatchAnswer
	if err := m.thresholds(ctx, p, []query.Threshold{q}, a[:]); err != nil {
		return nil, nil, err
	}
	return a[0].Points, a[0].Stats, a[0].Err
}

// deliver charges the result's transfer to the user and closes the query's
// accounting: what the fan-out took beyond the node critical path is
// mediator↔DB communication.
func (m *Mediator) deliver(ctx context.Context, p *sim.Proc, stats *QueryStats, fanout, start time.Duration, userBytes int) {
	stats.MediatorDBComm = max(fanout-stats.NodeCritical.Total, 0)
	userStart := m.exec.Now()
	_, dsp := obs.StartSpan(ctx, "deliver")
	if m.kernel != nil {
		m.userLink.Transfer(p, userBytes)
	}
	dsp.End()
	stats.MediatorUserComm = m.exec.Now() - userStart
	stats.Total = m.exec.Now() - start
	m.noteQuery(stats)
}

// noteQuery records the cluster-level metrics of one completed query.
func (m *Mediator) noteQuery(stats *QueryStats) {
	mQueries.Inc()
	mQuerySeconds.Observe(stats.Total.Seconds())
	mCoverage.Observe(stats.Coverage)
	if stats.Partial() {
		mPartialAns.Inc()
	}
}

// PDF evaluates a histogram query across the cluster and merges per-node
// bin counts.
func (m *Mediator) PDF(ctx context.Context, p *sim.Proc, q query.PDF) ([]int64, *QueryStats, error) {
	ctx, qsp := obs.StartSpan(ctx, "pdf")
	defer qsp.End()
	domain := m.grid.Domain()
	q = q.Normalize(domain)
	if err := q.Validate(domain); err != nil {
		mQueryErrs.Inc()
		return nil, nil, err
	}
	stats := &QueryStats{Trace: obs.TraceFrom(ctx)}
	start := m.exec.Now()
	results, fanout, err := fanoutReplicated(m, ctx, p, stats, func(ctx context.Context, wp *sim.Proc, cli NodeClient, scan []morton.Range) (*node.PDFResult, int, error) {
		qq := q
		qq.Scan = scan
		r, err := cli.GetPDF(ctx, wp, qq)
		return r, 16 * q.Bins, err
	})
	if err != nil {
		mQueryErrs.Inc()
		return nil, nil, err
	}
	_, msp := obs.StartSpan(ctx, "merge")
	counts := make([]int64, q.Bins)
	for _, r := range results {
		for j, c := range r.Counts {
			counts[j] += c
		}
		stats.NodeCritical.Max(r.Breakdown)
		if r.FromCache {
			stats.CacheHits++
		}
	}
	msp.End()
	m.deliver(ctx, p, stats, fanout, start, 16*q.Bins)
	return counts, stats, nil
}

// TopK evaluates a top-k query across the cluster: every node returns its k
// best candidates and the mediator keeps the global k largest.
func (m *Mediator) TopK(ctx context.Context, p *sim.Proc, q query.TopK) ([]query.ResultPoint, *QueryStats, error) {
	ctx, qsp := obs.StartSpan(ctx, "topk")
	defer qsp.End()
	domain := m.grid.Domain()
	q = q.Normalize(domain)
	if err := q.Validate(domain); err != nil {
		mQueryErrs.Inc()
		return nil, nil, err
	}
	stats := &QueryStats{Trace: obs.TraceFrom(ctx)}
	start := m.exec.Now()
	results, fanout, err := fanoutReplicated(m, ctx, p, stats, func(ctx context.Context, wp *sim.Proc, cli NodeClient, scan []morton.Range) (*node.TopKResult, int, error) {
		qq := q
		qq.Scan = scan
		r, err := cli.GetTopK(ctx, wp, qq)
		if err != nil {
			return nil, 0, err
		}
		return r, query.WireBytes(len(r.Points)), nil
	})
	if err != nil {
		mQueryErrs.Inc()
		return nil, nil, err
	}
	_, msp := obs.StartSpan(ctx, "merge")
	var top []query.ResultPoint
	for _, r := range results {
		top = append(top, r.Points...)
		stats.NodeCritical.Max(r.Breakdown)
	}
	sort.Slice(top, func(i, j int) bool { return query.RanksBefore(top[i], top[j]) })
	if len(top) > q.K {
		top = top[:q.K]
	}
	msp.End()
	stats.Points = len(top)
	m.deliver(ctx, p, stats, fanout, start, query.WireBytes(len(top)))
	return top, stats, nil
}

// DropCache removes cached results for (field, order, step) on every node —
// the cold-cache knob of the paper's experiments. ctx bounds the whole
// fan-out.
func (m *Mediator) DropCache(ctx context.Context, fieldName string, order, step int) error {
	for _, n := range m.clientList() {
		if err := n.DropCacheEntry(ctx, fieldName, order, step); err != nil {
			return err
		}
	}
	return nil
}

// SetProcesses sets the per-query worker count on every node (the scale-up
// knob of Fig. 7a). ctx bounds the whole fan-out.
func (m *Mediator) SetProcesses(ctx context.Context, procs int) error {
	for _, n := range m.clientList() {
		if err := n.SetProcesses(ctx, procs); err != nil {
			return err
		}
	}
	return nil
}
