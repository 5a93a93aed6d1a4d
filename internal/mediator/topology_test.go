package mediator

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/membership"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/node"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sim"
)

// recordingClient records the method and Scan of every query request it
// receives, then fails it transiently (fail), answers it empty (hollow —
// for ranges the wrapped node does not hold) or forwards it. A non-nil held
// is what it describes as the node's holdings.
type recordingClient struct {
	NodeClient
	fail, hollow bool
	held         []morton.Range

	mu    sync.Mutex
	calls []call
}

// call is one recorded query request (one per member of a batch request).
type call struct {
	method string
	scan   []morton.Range
}

func (c *recordingClient) record(method string, scan []morton.Range) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls = append(c.calls, call{method, scan})
	if c.fail {
		return transientErr{msg: "connection refused"}
	}
	return nil
}

// takenCalls returns the requests recorded since the last take.
func (c *recordingClient) takenCalls() []call {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.calls
	c.calls = nil
	return out
}

// taken returns the Scans recorded since the last take.
func (c *recordingClient) taken() [][]morton.Range {
	var out [][]morton.Range
	for _, cl := range c.takenCalls() {
		out = append(out, cl.scan)
	}
	return out
}

func (c *recordingClient) Describe(ctx context.Context) (node.Description, error) {
	d, err := c.NodeClient.Describe(ctx)
	if c.held != nil {
		d.Held = c.held
	}
	return d, err
}

func (c *recordingClient) GetThreshold(ctx context.Context, p *sim.Proc, q query.Threshold) (*node.ThresholdResult, error) {
	if err := c.record("GetThreshold", q.Scan); err != nil {
		return nil, err
	}
	if c.hollow {
		return &node.ThresholdResult{}, nil
	}
	return c.NodeClient.GetThreshold(ctx, p, q)
}

func (c *recordingClient) GetThresholdBatch(ctx context.Context, p *sim.Proc, qs []query.Threshold) (*node.ThresholdBatchResult, error) {
	for _, q := range qs {
		if err := c.record("GetThresholdBatch", q.Scan); err != nil {
			return nil, err
		}
	}
	return c.NodeClient.GetThresholdBatch(ctx, p, qs)
}

func (c *recordingClient) GetPDF(ctx context.Context, p *sim.Proc, q query.PDF) (*node.PDFResult, error) {
	if err := c.record("GetPDF", q.Scan); err != nil {
		return nil, err
	}
	return c.NodeClient.GetPDF(ctx, p, q)
}

func (c *recordingClient) GetTopK(ctx context.Context, p *sim.Proc, q query.TopK) (*node.TopKResult, error) {
	if err := c.record("GetTopK", q.Scan); err != nil {
		return nil, err
	}
	return c.NodeClient.GetTopK(ctx, p, q)
}

// recorded wraps nodes in recording clients and assembles a mediator over
// them, its breakers tuned by breaker when that is not nil. With owners ==
// nil the clients describe the nodes as they are; otherwise node i
// describes holding every range j = nodes[j].Owned() it is an owner of,
// its primary first, and the mediator must route by Ranges[j] =
// nodes[j].Owned(), Owners = owners.
func recorded(t *testing.T, nodes []*node.Node, owners [][]int, breaker *faulttol.BreakerConfig) (*Mediator, []*recordingClient) {
	t.Helper()
	cfg := Config{AllowPartial: true, Retry: &faulttol.Policy{MaxAttempts: 1}, Breaker: breaker}
	recs := make([]*recordingClient, len(nodes))
	for i, n := range nodes {
		recs[i] = &recordingClient{NodeClient: n}
		cfg.Nodes = append(cfg.Nodes, recs[i])
	}
	var want membership.Placement
	if owners != nil {
		want.Owners = owners
		for j, ids := range owners {
			r := nodes[j].Owned()
			want.Ranges = append(want.Ranges, r)
			for k, id := range ids {
				if k == 0 {
					recs[id].held = append([]morton.Range{r}, recs[id].held...)
				} else {
					recs[id].held = append(recs[id].held, r)
				}
			}
		}
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Topology(); owners != nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("the nodes describe %+v, want %+v", got, want)
	}
	return m, recs
}

// answer is what one query shape returned: point sets (one per batch
// member), PDF counts, and the stats of each.
type answer struct {
	pts    [][]query.ResultPoint
	counts []int64
	stats  []*QueryStats
}

// TestKOneIsATopology drives the same four nodes through Config{Nodes} and
// through clients that describe the k = 1 table explicitly (Held =
// [Owned]) and requires the two mediators to be indistinguishable — to the
// user (bits, coverage, failures) and to the nodes (no request carries a
// Scan, so cache keys and request bytes are the whole-shard ones). A k = 2
// table keeps that for a healthy primary-only route and sends a Scan only
// with a re-routed group.
func TestKOneIsATopology(t *testing.T) {
	nodes, _ := buildNodes(t, 4)
	ctx := context.Background()
	th := func(v float64) query.Threshold {
		return query.Threshold{Dataset: "isotropic", Field: derived.Vorticity, Threshold: v}
	}
	ops := []struct {
		name string
		run  func(m *Mediator) (answer, error)
	}{
		{"threshold", func(m *Mediator) (answer, error) {
			pts, st, err := m.Threshold(ctx, nil, th(1.0))
			return answer{pts: [][]query.ResultPoint{pts}, stats: []*QueryStats{st}}, err
		}},
		{"pdf", func(m *Mediator) (answer, error) {
			counts, st, err := m.PDF(ctx, nil, query.PDF{Dataset: "isotropic", Field: derived.Pressure, Bins: 6, Width: 0.5})
			return answer{counts: counts, stats: []*QueryStats{st}}, err
		}},
		{"topk", func(m *Mediator) (answer, error) {
			pts, st, err := m.TopK(ctx, nil, query.TopK{Dataset: "isotropic", Field: derived.Vorticity, K: 7})
			return answer{pts: [][]query.ResultPoint{pts}, stats: []*QueryStats{st}}, err
		}},
		{"batch of one", func(m *Mediator) (answer, error) {
			members, err := m.ThresholdBatch(ctx, nil, []query.Threshold{th(1.0)})
			if err != nil {
				return answer{}, err
			}
			return answer{pts: [][]query.ResultPoint{members[0].Points}, stats: []*QueryStats{members[0].Stats}}, members[0].Err
		}},
		{"batch", func(m *Mediator) (answer, error) {
			var a answer
			members, err := m.ThresholdBatch(ctx, nil, []query.Threshold{th(0.8), th(1.0), th(1.6)})
			for _, b := range members {
				if b.Err != nil {
					return a, b.Err
				}
				a.pts = append(a.pts, b.Points)
				a.stats = append(a.stats, b.Stats)
			}
			return a, err
		}},
	}
	kOne := [][]int{{0}, {1}, {2}, {3}}

	for _, row := range []struct {
		name string
		down int // node failing transiently; -1 = none
	}{{"healthy", -1}, {"node 2 down under AllowPartial", 2}} {
		t.Run(row.name, func(t *testing.T) {
			plain, plainRecs := recorded(t, nodes, nil, nil)
			table, tableRecs := recorded(t, nodes, kOne, nil)
			if row.down >= 0 {
				plainRecs[row.down].fail = true
				tableRecs[row.down].fail = true
			}
			for _, op := range ops {
				want, err := op.run(plain)
				if err != nil {
					t.Fatalf("%s via Config{Nodes}: %v", op.name, err)
				}
				got, err := op.run(table)
				if err != nil {
					t.Fatalf("%s via the k = 1 table: %v", op.name, err)
				}
				sameAnswer(t, op.name, got, want)
				for _, st := range want.stats {
					if (row.down >= 0) != st.Partial() {
						t.Errorf("%s: Failures = %+v with node %d down", op.name, st.Failures, row.down)
					}
				}
			}
			for i := range nodes {
				for _, recs := range [][]*recordingClient{plainRecs, tableRecs} {
					scans := recs[i].taken()
					if len(scans) == 0 {
						t.Errorf("node %d received no request", i)
					}
					for _, scan := range scans {
						if len(scan) != 0 {
							t.Errorf("node %d received Scan %v at k = 1", i, scan)
						}
					}
				}
			}
		})
	}

	t.Run("k = 2", func(t *testing.T) {
		now := time.Unix(0, 0)
		breaker := &faulttol.BreakerConfig{FailureThreshold: 1, Cooldown: 5 * time.Second, Now: func() time.Time { return now }}
		m, recs := recorded(t, nodes, [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, breaker)
		for _, r := range recs {
			r.hollow = true // node i+1 holds no data for range i
		}
		run := func(wantReroutes int) {
			t.Helper()
			_, st, err := m.Threshold(ctx, nil, th(1.0))
			if err != nil {
				t.Fatal(err)
			}
			if st.Coverage != 1 || st.Reroutes != wantReroutes {
				t.Fatalf("Coverage = %v, Reroutes = %d, want 1 and %d", st.Coverage, st.Reroutes, wantReroutes)
			}
		}
		var none []morton.Range
		r1, r2 := nodes[1].Owned(), nodes[2].Owned()

		run(0)
		for i, r := range recs {
			if scans := r.taken(); !reflect.DeepEqual(scans, [][]morton.Range{none}) {
				t.Errorf("healthy primary-only route sent node %d %v, want one request without Scan", i, scans)
			}
		}

		// Node 1 fails: its range re-routes to node 2 in a second round.
		recs[1].fail = true
		run(1)
		if scans := recs[2].taken(); !reflect.DeepEqual(scans, [][]morton.Range{none, {r1}}) {
			t.Errorf("node 2 received %v, want its own shard without Scan, then Scan [%v]", scans, r1)
		}

		// That one failure opened node 1's breaker: its range joins node 2's
		// own in one request, which carries both, sorted, and node 1 is not
		// asked.
		if st := m.BreakerState(1); st != faulttol.Open {
			t.Fatalf("node 1's breaker is %v after a failure, want open", st)
		}
		takeAll := func() {
			for _, r := range recs {
				r.taken()
			}
		}
		takeAll()
		run(0)
		if scans := recs[2].taken(); !reflect.DeepEqual(scans, [][]morton.Range{{r1, r2}}) {
			t.Errorf("node 2 received %v, want one request with Scan [%v %v]", scans, r1, r2)
		}
		if scans := recs[0].taken(); !reflect.DeepEqual(scans, [][]morton.Range{none}) {
			t.Errorf("node 0 received %v, want one request without Scan", scans)
		}
		if scans := recs[1].taken(); len(scans) != 0 {
			t.Errorf("node 1 received %v behind its open breaker", scans)
		}

		// Node 0 fails a second later: its breaker opens, and range 0, whose
		// other owner is node 1, is dropped (AllowPartial).
		now = now.Add(time.Second)
		recs[0].fail = true
		if _, st, err := m.Threshold(ctx, nil, th(1.0)); err != nil || st.Coverage != 0.75 {
			t.Fatalf("with nodes 0 and 1 down: Coverage %v, err %v; want 0.75 and none", st.Coverage, err)
		}
		// After node 1's cooldown its breaker is half-open and node 0's still
		// open: range 0 goes to node 1 first, and node 0 is not asked.
		now = time.Unix(0, 0).Add(breaker.Cooldown)
		recs[1].fail = false
		if s0, s1 := m.BreakerState(0), m.BreakerState(1); s0 != faulttol.Open || s1 != faulttol.HalfOpen {
			t.Fatalf("breakers of nodes 0 and 1 are %v and %v, want open and half-open", s0, s1)
		}
		takeAll()
		run(0)
		if scans := recs[1].taken(); !reflect.DeepEqual(scans, [][]morton.Range{{nodes[0].Owned()}}) {
			t.Errorf("node 1 received %v, want one request with Scan [%v]", scans, nodes[0].Owned())
		}
		if scans := recs[0].taken(); len(scans) != 0 {
			t.Errorf("node 0 received %v behind its open breaker", scans)
		}
		if st := m.BreakerState(1); st != faulttol.Closed {
			t.Errorf("node 1's breaker is %v after its probe answered, want closed", st)
		}
	})

	// A one-member ThresholdBatch is the lone Threshold: the same requests
	// (GetThreshold, no Scan) and the same answer.
	t.Run("batch of one asks like a lone threshold", func(t *testing.T) {
		run := map[string]func(m *Mediator) (answer, error){}
		for _, op := range ops {
			run[op.name] = op.run
		}
		m, recs := recorded(t, nodes, nil, nil)
		var answers [2]answer
		var calls [2][][]call
		for i, name := range []string{"threshold", "batch of one"} {
			a, err := run[name](m)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			answers[i] = a
			for _, r := range recs {
				calls[i] = append(calls[i], r.takenCalls())
			}
		}
		sameAnswer(t, "batch of one", answers[1], answers[0])
		for i, want := range calls[0] {
			if !reflect.DeepEqual(want, []call{{method: "GetThreshold"}}) {
				t.Errorf("threshold asked node %d with %+v, want one GetThreshold without Scan", i, want)
			}
			if got := calls[1][i]; !reflect.DeepEqual(got, want) {
				t.Errorf("batch of one asked node %d with %+v, want %+v", i, got, want)
			}
		}
		g, w := answers[1].stats[0], answers[0].stats[0]
		if g.ResponseBytes != w.ResponseBytes || g.SharedScan != w.SharedScan || g.ScansSaved != w.ScansSaved {
			t.Errorf("batch of one: ResponseBytes/SharedScan/ScansSaved = %d/%v/%d, want %d/%v/%d",
				g.ResponseBytes, g.SharedScan, g.ScansSaved, w.ResponseBytes, w.SharedScan, w.ScansSaved)
		}
	})
}

// sameAnswer requires two answers to agree bit for bit, and their stats on
// everything the routing decides.
func sameAnswer(t *testing.T, label string, got, want answer) {
	t.Helper()
	if len(got.pts) != len(want.pts) || len(got.stats) != len(want.stats) {
		t.Fatalf("%s: %d point sets / %d stats, want %d / %d", label, len(got.pts), len(got.stats), len(want.pts), len(want.stats))
	}
	for j := range want.pts {
		if len(got.pts[j]) != len(want.pts[j]) {
			t.Fatalf("%s[%d]: %d points, want %d", label, j, len(got.pts[j]), len(want.pts[j]))
		}
		for i, w := range want.pts[j] {
			if g := got.pts[j][i]; g.Code != w.Code || math.Float32bits(g.Value) != math.Float32bits(w.Value) {
				t.Fatalf("%s[%d]: point %d = %+v, want %+v", label, j, i, g, w)
			}
		}
	}
	if !reflect.DeepEqual(got.counts, want.counts) {
		t.Errorf("%s: counts %v, want %v", label, got.counts, want.counts)
	}
	for j, w := range want.stats {
		g := got.stats[j]
		if g.Coverage != w.Coverage || g.CacheHits != w.CacheHits || g.NodeAnswers != w.NodeAnswers || g.Points != w.Points { // both sides compute coverage from the same cell counts
			t.Errorf("%s[%d]: Coverage/CacheHits/NodeAnswers/Points = %v/%d/%d/%d, want %v/%d/%d/%d", label, j,
				g.Coverage, g.CacheHits, g.NodeAnswers, g.Points, w.Coverage, w.CacheHits, w.NodeAnswers, w.Points)
		}
		if g.Reroutes != 0 || w.Reroutes != 0 {
			t.Errorf("%s[%d]: Reroutes = %d and %d at k = 1", label, j, g.Reroutes, w.Reroutes)
		}
		if len(g.Failures) != len(w.Failures) {
			t.Fatalf("%s[%d]: Failures %+v, want %+v", label, j, g.Failures, w.Failures)
		}
		for i, wf := range w.Failures {
			if gf := g.Failures[i]; gf.Node != wf.Node || gf.Owned != wf.Owned {
				t.Errorf("%s[%d]: failure %d = node %d %v, want node %d %v", label, j, i, gf.Node, gf.Owned, wf.Node, wf.Owned)
			}
		}
	}
}
