package cluster

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/faultinject"
	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/mediator"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/node"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sim"
	"github.com/turbdb/turbdb/internal/synth"
)

// dyingClient forwards to a real node until killed, then fails every query
// with a transient injected error — a node crashing mid-workload.
type dyingClient struct {
	mediator.NodeClient
	dead  atomic.Bool
	calls atomic.Int64
	// killAfter kills the node once this many query calls have started
	// (0 = dead from the first call).
	killAfter int64
}

func (d *dyingClient) fail() error {
	n := d.calls.Add(1)
	if d.dead.Load() || n > d.killAfter {
		d.dead.Store(true)
		return &faultinject.InjectedError{Key: "node", Call: int(n)}
	}
	return nil
}

func (d *dyingClient) GetThreshold(ctx context.Context, p *sim.Proc, q query.Threshold) (*node.ThresholdResult, error) {
	if err := d.fail(); err != nil {
		return nil, err
	}
	return d.NodeClient.GetThreshold(ctx, p, q)
}

func (d *dyingClient) GetPDF(ctx context.Context, p *sim.Proc, q query.PDF) (*node.PDFResult, error) {
	if err := d.fail(); err != nil {
		return nil, err
	}
	return d.NodeClient.GetPDF(ctx, p, q)
}

func (d *dyingClient) GetTopK(ctx context.Context, p *sim.Proc, q query.TopK) (*node.TopKResult, error) {
	if err := d.fail(); err != nil {
		return nil, err
	}
	return d.NodeClient.GetTopK(ctx, p, q)
}

// fastRetry keeps chaos tests quick: two attempts, millisecond backoff.
func fastRetry() *faulttol.Policy {
	return &faulttol.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
}

// chaosMediator builds a real-mode 4-node cluster and a mediator over it
// with node `kill` wrapped to die after killAfter calls.
func chaosMediator(t *testing.T, allowPartial bool, kill int, killAfter int64) (*Cluster, *mediator.Mediator, morton.Range) {
	t.Helper()
	c := buildTest(t, Config{Nodes: 4, AllowPartial: allowPartial}, synth.Isotropic, 16)
	clients := make([]mediator.NodeClient, len(c.Nodes()))
	for i, n := range c.Nodes() {
		if i == kill {
			clients[i] = &dyingClient{NodeClient: n, killAfter: killAfter}
		} else {
			clients[i] = n
		}
	}
	m, err := mediator.New(mediator.Config{
		Nodes: clients, AllowPartial: allowPartial, Retry: fastRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, m, c.Nodes()[kill].Owned()
}

func chaosQuery() query.Threshold {
	return query.Threshold{Dataset: "isotropic", Field: derived.Vorticity, Threshold: 1.0}
}

func TestChaosStrictModeFailsQuery(t *testing.T) {
	_, m, _ := chaosMediator(t, false, 2, 0)
	_, _, err := m.Threshold(context.Background(), nil, chaosQuery())
	if err == nil {
		t.Fatal("strict mediator answered despite a dead node")
	}
	var inj *faultinject.InjectedError
	if !errors.As(err, &inj) {
		t.Fatalf("err = %v, want the injected node failure wrapped", err)
	}
}

func TestChaosPartialModeDegrades(t *testing.T) {
	// Reference: the complete answer from a healthy cluster.
	healthy := buildTest(t, Config{Nodes: 4}, synth.Isotropic, 16)
	full, _, err := healthy.Mediator.Threshold(context.Background(), nil, chaosQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(full) == 0 {
		t.Fatal("reference query returned nothing")
	}

	_, m, deadRange := chaosMediator(t, true, 2, 0)
	pts, stats, err := m.Threshold(context.Background(), nil, chaosQuery())
	if err != nil {
		t.Fatalf("partial mediator failed outright: %v", err)
	}
	if stats.Coverage >= 1 || stats.Coverage <= 0 {
		t.Errorf("Coverage = %v, want in (0, 1)", stats.Coverage)
	}
	if !stats.Partial() || len(stats.Failures) != 1 || stats.Failures[0].Node != 2 {
		t.Errorf("Failures = %+v, want exactly node 2", stats.Failures)
	}
	// The partial answer must be exactly the complete answer minus the dead
	// node's Morton range.
	g := healthy.Generator().Grid()
	var want []query.ResultPoint
	for _, p := range full {
		if !deadRange.Contains(g.AtomCode(p.Coords())) {
			want = append(want, p)
		}
	}
	if len(pts) != len(want) {
		t.Fatalf("partial answer has %d points, want %d (full %d)", len(pts), len(want), len(full))
	}
	for i := range pts {
		if pts[i] != want[i] {
			t.Fatalf("partial answer diverges at %d: %v vs %v", i, pts[i], want[i])
		}
	}
}

// TestChaosConcurrentQueriesSurviveNodeDeath kills 1 of 4 nodes while
// several queries are in flight; run under -race this exercises the
// mediator's shared state (breakers, retry executors) across goroutines.
func TestChaosConcurrentQueriesSurviveNodeDeath(t *testing.T) {
	_, m, _ := chaosMediator(t, true, 1, 2)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	covs := make([]float64, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, stats, err := m.Threshold(context.Background(), nil, chaosQuery())
			errs[i] = err
			if stats != nil {
				covs[i] = stats.Coverage
			}
		}(i)
	}
	wg.Wait()
	sawPartial := false
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d failed in partial mode: %v", i, err)
		}
		if covs[i] < 1 {
			sawPartial = true
		}
	}
	if !sawPartial {
		t.Error("node died but every answer claims full coverage")
	}
}

// fanPeers routes halo fetches across the cluster's nodes in-process (the
// same routing the cluster's internal fetcher performs in real mode).
type fanPeers struct {
	nodes []*node.Node
	self  int
}

func (f *fanPeers) FetchAtoms(ctx context.Context, p *sim.Proc, rawField string, step int, codes []morton.Code) (map[morton.Code][]byte, error) {
	out := make(map[morton.Code][]byte, len(codes))
	for _, c := range codes {
		for i, n := range f.nodes {
			if i == f.self || !n.Owned().Contains(c) {
				continue
			}
			blobs, err := n.FetchAtoms(ctx, p, rawField, step, []morton.Code{c})
			if err != nil {
				return nil, err
			}
			out[c] = blobs[c]
			break
		}
	}
	return out, nil
}

// TestChaosHaloFailureDropsRange fails every halo fetch of node 0. A node
// never answers without its halo, so node 0 fails its range with the
// injected fault and the mediator alone decides what that costs: a strict
// mediator fails the query, a partial one drops exactly node 0's range with
// exact Coverage, and at k = 2 a replica answers the range in full. A peer
// that drops atoms silently instead fails node 0's assembly permanently,
// which no mediator degrades around.
func TestChaosHaloFailureDropsRange(t *testing.T) {
	ctx := context.Background()
	pq := query.PDF{Dataset: "isotropic", Field: derived.Vorticity, Bins: 16, Width: 0.5}
	healthy := buildTest(t, Config{Nodes: 4}, synth.Isotropic, 16)
	full, _, err := healthy.Mediator.Threshold(ctx, nil, chaosQuery())
	if err != nil {
		t.Fatal(err)
	}
	// The healthy twin's nodes 1–3, merged.
	lost := healthy.Nodes()[0].Owned()
	g := healthy.Generator().Grid()
	var want []query.ResultPoint
	for _, p := range full {
		if !lost.Contains(g.AtomCode(p.Coords())) {
			want = append(want, p)
		}
	}
	wantPDF := make([]int64, pq.Bins)
	for _, n := range healthy.Nodes()[1:] {
		res, err := n.GetPDF(ctx, nil, pq)
		if err != nil {
			t.Fatal(err)
		}
		for b, k := range res.Counts {
			wantPDF[b] += k
		}
	}
	if len(want) == 0 || len(want) == len(full) {
		t.Fatalf("test geometry: nodes 1–3 hold %d of %d points", len(want), len(full))
	}
	samePoints := func(what string, got, want []query.ResultPoint) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d points, want %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Code != want[i].Code || math.Float32bits(got[i].Value) != math.Float32bits(want[i].Value) {
				t.Fatalf("%s: point %d is %v, want %v", what, i, got[i], want[i])
			}
		}
	}
	haloDownWith := func(cfg Config, rule *faultinject.Rule) *Cluster {
		c := buildTest(t, cfg, synth.Isotropic, 16)
		plan := faultinject.NewPlan(1, rule)
		c.Nodes()[0].SetPeers(faultinject.NewPeerFetcher(&fanPeers{nodes: c.Nodes(), self: 0}, plan))
		return c
	}
	haloDown := func(cfg Config) *Cluster {
		return haloDownWith(cfg, &faultinject.Rule{Mode: faultinject.ModeError})
	}
	strictOver := func(c *Cluster) *mediator.Mediator {
		clients := make([]mediator.NodeClient, len(c.Nodes()))
		for i, n := range c.Nodes() {
			clients[i] = n
		}
		m, err := mediator.New(mediator.Config{Nodes: clients, Retry: fastRetry()})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	var inj *faultinject.InjectedError

	t.Run("strict", func(t *testing.T) {
		_, _, err := haloDown(Config{Nodes: 4}).Mediator.Threshold(ctx, nil, chaosQuery())
		if !errors.As(err, &inj) {
			t.Fatalf("err = %v, want the injected halo fault wrapped", err)
		}
	})
	t.Run("partial", func(t *testing.T) {
		c := haloDown(Config{Nodes: 4, AllowPartial: true})
		pts, stats, err := c.Mediator.Threshold(ctx, nil, chaosQuery())
		if err != nil {
			t.Fatal(err)
		}
		if stats.Coverage != 0.75 || len(stats.Failures) != 1 || stats.Failures[0].Node != 0 {
			t.Errorf("Coverage = %v, Failures = %+v; want 0.75 and node 0", stats.Coverage, stats.Failures)
		}
		samePoints("threshold", pts, want)
		counts, stats, err := c.Mediator.PDF(ctx, nil, pq)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Coverage != 0.75 || !slices.Equal(counts, wantPDF) {
			t.Errorf("PDF = %v at Coverage %v, want %v at 0.75", counts, stats.Coverage, wantPDF)
		}

		// A strict mediator over the same nodes fails: no node hands it a
		// short answer it could mistake for a whole one.
		if pts, _, err := strictOver(c).Threshold(ctx, nil, chaosQuery()); !errors.As(err, &inj) {
			t.Fatalf("strict mediator: %d points, err = %v; want the injected halo fault", len(pts), err)
		}
	})
	t.Run("k=2", func(t *testing.T) {
		pts, stats, err := haloDown(Config{Nodes: 4, Replication: 2}).Mediator.Threshold(ctx, nil, chaosQuery())
		if err != nil {
			t.Fatal(err)
		}
		if stats.Coverage != 1 {
			t.Errorf("Coverage = %v, want 1 through replica failover", stats.Coverage)
		}
		samePoints("k=2", pts, full)
	})
	// The peer answers without error but keeps no atom (ModePartial): node
	// 0's assembly finds an atom missing, a permanent failure, so neither a
	// strict nor a partial mediator answers, and none answers short.
	t.Run("peer drops atoms silently", func(t *testing.T) {
		c := haloDownWith(Config{Nodes: 4, AllowPartial: true}, &faultinject.Rule{Mode: faultinject.ModePartial, TruncateTo: 0})
		for _, m := range []struct {
			name string
			med  *mediator.Mediator
		}{{"partial", c.Mediator}, {"strict", strictOver(c)}} {
			pts, stats, err := m.med.Threshold(ctx, nil, chaosQuery())
			switch {
			case err == nil:
				t.Fatalf("%s mediator answered %d points at Coverage %v", m.name, len(pts), stats.Coverage)
			case faulttol.Transient(err):
				t.Errorf("%s mediator: %v is transient, want a permanent error", m.name, err)
			case !strings.Contains(err.Error(), "atom missing during assembly"):
				t.Errorf("%s mediator: err = %v, want the node's missing-atom error", m.name, err)
			case len(pts) != 0:
				t.Errorf("%s mediator: %d points with the error", m.name, len(pts))
			}
		}
	})
}
