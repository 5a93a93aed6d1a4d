package mediator

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/membership"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/node"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sim"
)

// recordingClient records the Scan of every query request it receives, then
// fails it transiently (fail), answers it empty (hollow — for ranges the
// wrapped node does not hold) or forwards it.
type recordingClient struct {
	NodeClient
	fail, hollow bool

	mu    sync.Mutex
	scans [][]morton.Range
}

func (c *recordingClient) record(scan []morton.Range) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.scans = append(c.scans, scan)
	if c.fail {
		return transientErr{msg: "connection refused"}
	}
	return nil
}

func (c *recordingClient) taken() [][]morton.Range {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.scans
	c.scans = nil
	return out
}

func (c *recordingClient) GetThreshold(ctx context.Context, p *sim.Proc, q query.Threshold) (*node.ThresholdResult, error) {
	if err := c.record(q.Scan); err != nil {
		return nil, err
	}
	if c.hollow {
		return &node.ThresholdResult{}, nil
	}
	return c.NodeClient.GetThreshold(ctx, p, q)
}

func (c *recordingClient) GetThresholdBatch(ctx context.Context, p *sim.Proc, qs []query.Threshold) (*node.ThresholdBatchResult, error) {
	for _, q := range qs {
		if err := c.record(q.Scan); err != nil {
			return nil, err
		}
	}
	return c.NodeClient.GetThresholdBatch(ctx, p, qs)
}

func (c *recordingClient) GetPDF(ctx context.Context, p *sim.Proc, q query.PDF) (*node.PDFResult, error) {
	if err := c.record(q.Scan); err != nil {
		return nil, err
	}
	return c.NodeClient.GetPDF(ctx, p, q)
}

func (c *recordingClient) GetTopK(ctx context.Context, p *sim.Proc, q query.TopK) (*node.TopKResult, error) {
	if err := c.record(q.Scan); err != nil {
		return nil, err
	}
	return c.NodeClient.GetTopK(ctx, p, q)
}

// recorded wraps nodes in recording clients and assembles a mediator over
// them; owners == nil means Config{Nodes} alone, otherwise the explicit
// table Ranges[i] = nodes[i].Owned(), Owners = owners.
func recorded(t *testing.T, nodes []*node.Node, owners [][]int) (*Mediator, []*recordingClient, *membership.Table) {
	t.Helper()
	cfg := Config{AllowPartial: true, Retry: &faulttol.Policy{MaxAttempts: 1}}
	recs := make([]*recordingClient, len(nodes))
	ids := make([]int, len(nodes))
	for i, n := range nodes {
		recs[i] = &recordingClient{NodeClient: n}
		cfg.Nodes = append(cfg.Nodes, recs[i])
		ids[i] = i
	}
	if owners != nil {
		cfg.Topology = &Topology{Version: 1, Owners: owners}
		for _, n := range nodes {
			cfg.Topology.Ranges = append(cfg.Topology.Ranges, n.Owned())
		}
		cfg.Members = membership.NewTable(ids...)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, recs, cfg.Members
}

// answer is what one query shape returned: point sets (one per batch
// member), PDF counts, and the stats of each.
type answer struct {
	pts    [][]query.ResultPoint
	counts []int64
	stats  []*QueryStats
}

// TestKOneIsATopology drives the same four nodes through Config{Nodes} and
// through the explicit k = 1 table and requires the two mediators to be
// indistinguishable — to the user (bits, coverage, failures) and to the
// nodes (no request carries a Scan, so cache keys and request bytes are the
// whole-shard ones). A k = 2 table keeps that for a healthy primary-only
// route and sends a Scan only with a re-routed group.
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
			plain, plainRecs, _ := recorded(t, nodes, nil)
			table, tableRecs, _ := recorded(t, nodes, kOne)
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
		m, recs, members := recorded(t, nodes, [][]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
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

		// Node 1 suspected (what its open breaker does): its range joins
		// node 2's own in one request, which carries both, sorted.
		members.MarkSuspect(1)
		recs[0].taken()
		run(0)
		if scans := recs[2].taken(); !reflect.DeepEqual(scans, [][]morton.Range{{r1, r2}}) {
			t.Errorf("node 2 received %v, want one request with Scan [%v %v]", scans, r1, r2)
		}
		if scans := recs[0].taken(); !reflect.DeepEqual(scans, [][]morton.Range{none}) {
			t.Errorf("node 0 received %v, want one request without Scan", scans)
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
		if g.Coverage != w.Coverage || g.CacheHits != w.CacheHits || g.NodeAnswers != w.NodeAnswers || g.Points != w.Points { //lint:allow floateq both sides compute coverage from the same cell counts
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
