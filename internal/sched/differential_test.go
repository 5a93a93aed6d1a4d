package sched

// Differential tests of the bit-for-bit invariant: a threshold query routed
// through the scheduler — queued, merged into a shared scan, failed over —
// returns Float32bits-identical points and identical Coverage to the same
// query evaluated sequentially on an identically-built cluster. Three
// cluster states are covered: healthy, partial coverage (a node down in
// AllowPartial mode), and replicated kill-primary failover.

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/turbdb/turbdb/internal/cluster"
	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/faultinject"
	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/mediator"
	"github.com/turbdb/turbdb/internal/node"
	"github.com/turbdb/turbdb/internal/obs"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sim"
	"github.com/turbdb/turbdb/internal/synth"
	"github.com/turbdb/turbdb/internal/workload"
)

// buildCluster assembles a real-mode cluster over a deterministic synthetic
// dataset; two calls with the same cfg yield bit-identical data.
func buildCluster(t testing.TB, cfg cluster.Config) *cluster.Cluster {
	t.Helper()
	gen, err := synth.New(synth.Params{N: 16, Seed: 11, Kind: synth.Isotropic, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.Build(gen, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// overlappingQueries builds n threshold queries over one (field, step) with
// cycling thresholds, overlapping boxes and mixed tenants — the shape the
// batching window merges.
func overlappingQueries(n int) []query.Threshold {
	boxes := []grid.Box{
		{}, // whole domain
		{Lo: grid.Point{X: 0, Y: 0, Z: 0}, Hi: grid.Point{X: 12, Y: 16, Z: 16}},
		{Lo: grid.Point{X: 4, Y: 0, Z: 0}, Hi: grid.Point{X: 16, Y: 16, Z: 16}},
		{Lo: grid.Point{X: 2, Y: 2, Z: 2}, Hi: grid.Point{X: 14, Y: 14, Z: 14}},
	}
	thresholds := []float64{0.6, 1.0, 1.4, 1.8}
	tenants := []string{"", "viz", "ml"}
	qs := make([]query.Threshold, n)
	for i := range qs {
		qs[i] = query.Threshold{
			Dataset: "isotropic", Field: derived.Vorticity,
			Threshold: thresholds[i%len(thresholds)],
			Box:       boxes[i%len(boxes)],
			Tenant:    tenants[i%len(tenants)],
		}
	}
	return qs
}

// fastRetry keeps failover tests quick.
func fastRetry() *faulttol.Policy {
	return &faulttol.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
}

type answer struct {
	pts   []query.ResultPoint
	stats *mediator.QueryStats
	err   error
}

// runSequential answers the queries one by one on a bare mediator.
func runSequential(m *mediator.Mediator, qs []query.Threshold) []answer {
	out := make([]answer, len(qs))
	for i, q := range qs {
		pts, stats, err := m.Threshold(context.Background(), nil, q)
		out[i] = answer{pts: pts, stats: stats, err: err}
	}
	return out
}

// runScheduled answers the queries through the scheduler, one goroutine per
// query, so they race into the batching window together.
func runScheduled(s *Scheduler, qs []query.Threshold) []answer {
	out := make([]answer, len(qs))
	var wg sync.WaitGroup
	for i := range qs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pts, stats, err := s.Threshold(context.Background(), nil, qs[i])
			out[i] = answer{pts: pts, stats: stats, err: err}
		}(i)
	}
	wg.Wait()
	return out
}

// diffAnswers asserts the scheduled answers match the sequential reference
// bit for bit, including Coverage.
func diffAnswers(t *testing.T, got, want []answer) {
	t.Helper()
	for i := range want {
		if (got[i].err == nil) != (want[i].err == nil) {
			t.Fatalf("query %d: scheduled err %v, sequential err %v", i, got[i].err, want[i].err)
		}
		if want[i].err != nil {
			continue
		}
		if len(got[i].pts) != len(want[i].pts) {
			t.Fatalf("query %d: %d points scheduled, %d sequential", i, len(got[i].pts), len(want[i].pts))
		}
		for j := range want[i].pts {
			g, w := got[i].pts[j], want[i].pts[j]
			if g.Code != w.Code || math.Float32bits(g.Value) != math.Float32bits(w.Value) {
				t.Fatalf("query %d point %d: scheduled %+v, sequential %+v", i, j, g, w)
			}
		}
		if got[i].stats.Coverage != want[i].stats.Coverage {
			t.Fatalf("query %d: Coverage %v scheduled, %v sequential", i, got[i].stats.Coverage, want[i].stats.Coverage)
		}
	}
}

// TestSchedDifferentialHealthy is the tentpole acceptance check: 32
// concurrent overlapping threshold queries through the scheduler are
// Float32bits-identical to sequential evaluation, with followers batched
// (SharedScan). With a cache, the first query's solo scan fills it and its
// followers are answered from it; without one, they share scans
// (ScansSaved > 0).
func TestSchedDifferentialHealthy(t *testing.T) {
	for _, cache := range []bool{true, false} {
		t.Run(fmt.Sprintf("cache=%v", cache), func(t *testing.T) {
			schedDifferentialHealthy(t, cache)
		})
	}
}

func schedDifferentialHealthy(t *testing.T, withCache bool) {
	defer obs.VerifyNoLeaks(t)
	cfg := cluster.Config{Nodes: 4, WithCache: withCache}
	seq := buildCluster(t, cfg)
	con := buildCluster(t, cfg)
	s, err := New(con.Mediator, Config{
		MaxConcurrent: 32, BatchWindow: 50 * time.Millisecond, MaxBatch: 32,
	})
	if err != nil {
		t.Fatal(err)
	}

	qs := overlappingQueries(32)
	want := runSequential(seq.Mediator, qs)
	got := runScheduled(s, qs)
	s.Close()
	diffAnswers(t, got, want)

	saved, shared := 0, 0
	for _, a := range got {
		if a.err != nil {
			t.Fatalf("scheduled query failed: %v", a.err)
		}
		saved += a.stats.ScansSaved
		if a.stats.SharedScan {
			shared++
		}
		if a.stats.Coverage != 1 {
			t.Fatalf("healthy cluster coverage %v", a.stats.Coverage)
		}
	}
	if !withCache && saved == 0 {
		t.Error("32 overlapping concurrent queries shared no scans (ScansSaved == 0)")
	}
	if shared == 0 {
		t.Error("no query was marked SharedScan")
	}
}

// deadErr is the transient failure the dead-node wrapper injects.
type deadErr struct{}

func (deadErr) Error() string   { return "sched test: node is down" }
func (deadErr) Transient() bool { return true }

// deadClient fails every query call — a node that is down for the whole run.
type deadClient struct{ mediator.NodeClient }

func (d *deadClient) GetThreshold(ctx context.Context, p *sim.Proc, q query.Threshold) (*node.ThresholdResult, error) {
	return nil, deadErr{}
}

func (d *deadClient) GetThresholdBatch(ctx context.Context, p *sim.Proc, qs []query.Threshold) (*node.ThresholdBatchResult, error) {
	return nil, deadErr{}
}

func (d *deadClient) GetPDF(ctx context.Context, p *sim.Proc, q query.PDF) (*node.PDFResult, error) {
	return nil, deadErr{}
}

func (d *deadClient) GetTopK(ctx context.Context, p *sim.Proc, q query.TopK) (*node.TopKResult, error) {
	return nil, deadErr{}
}

// partialMediator builds a mediator over the cluster's nodes with node
// `dead` failing every call, in AllowPartial mode.
func partialMediator(t *testing.T, c *cluster.Cluster, dead int) *mediator.Mediator {
	t.Helper()
	clients := make([]mediator.NodeClient, len(c.Nodes()))
	for i, n := range c.Nodes() {
		if i == dead {
			clients[i] = &deadClient{NodeClient: n}
		} else {
			clients[i] = n
		}
	}
	m, err := mediator.New(mediator.Config{Nodes: clients, AllowPartial: true, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSchedDifferentialPartialCoverage repeats the differential check with a
// node down in AllowPartial mode: batched answers must degrade to exactly
// the sequential partial answers, Coverage included.
func TestSchedDifferentialPartialCoverage(t *testing.T) {
	defer obs.VerifyNoLeaks(t)
	cfg := cluster.Config{Nodes: 4, AllowPartial: true}
	seqM := partialMediator(t, buildCluster(t, cfg), 2)
	conM := partialMediator(t, buildCluster(t, cfg), 2)
	s, err := New(conM, Config{
		MaxConcurrent: 16, BatchWindow: 50 * time.Millisecond, MaxBatch: 16,
	})
	if err != nil {
		t.Fatal(err)
	}

	qs := overlappingQueries(16)
	want := runSequential(seqM, qs)
	got := runScheduled(s, qs)
	s.Close()
	diffAnswers(t, got, want)
	for i, a := range got {
		if a.err != nil {
			t.Fatalf("query %d failed: %v", i, a.err)
		}
		if a.stats.Coverage >= 1 {
			t.Fatalf("query %d: coverage %v with a dead node", i, a.stats.Coverage)
		}
	}
}

// failoverMediator builds a k=2 replicated mediator over the cluster with
// node `kill`'s client dying via a fault plan — dead from its first query
// call, so every batch touching its ranges must fail over to replicas.
func failoverMediator(t *testing.T, c *cluster.Cluster, kill int) *mediator.Mediator {
	t.Helper()
	plan := faultinject.NewPlan(1, faultinject.KillPrimary(kill, 0))
	clients := make([]mediator.NodeClient, len(c.Nodes()))
	for i, n := range c.Nodes() {
		clients[i] = faultinject.WrapNode(n, plan, i)
	}
	m, err := mediator.New(mediator.Config{
		Nodes: clients, AllowPartial: true, Retry: fastRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSchedDifferentialKillPrimaryFailover repeats the differential check
// under replica failover: with k=2 and a dead primary, batched and
// sequential answers must both fail over to full coverage and stay
// bit-for-bit identical.
func TestSchedDifferentialKillPrimaryFailover(t *testing.T) {
	defer obs.VerifyNoLeaks(t)
	cfg := cluster.Config{Nodes: 4, Replication: 2, AllowPartial: true}
	seqM := failoverMediator(t, buildCluster(t, cfg), 1)
	conM := failoverMediator(t, buildCluster(t, cfg), 1)
	s, err := New(conM, Config{
		MaxConcurrent: 16, BatchWindow: 50 * time.Millisecond, MaxBatch: 16,
	})
	if err != nil {
		t.Fatal(err)
	}

	qs := overlappingQueries(16)
	want := runSequential(seqM, qs)
	got := runScheduled(s, qs)
	s.Close()
	diffAnswers(t, got, want)
	for i, a := range got {
		if a.err != nil {
			t.Fatalf("query %d failed: %v", i, a.err)
		}
		if a.stats.Coverage != 1 {
			t.Fatalf("query %d: coverage %v, want 1 (replicas must absorb the dead primary)", i, a.stats.Coverage)
		}
	}
}

// TestSchedulerStressConcurrentNodeDeath is the CI stress lane: a
// multi-tenant concurrent workload through the scheduler while a primary
// dies mid-run, then a full drain with the leak checker. Nothing may hang,
// drop a query, or leave a goroutine behind.
func TestSchedulerStressConcurrentNodeDeath(t *testing.T) {
	defer obs.VerifyNoLeaks(t)
	c := buildCluster(t, cluster.Config{Nodes: 4, Replication: 2, AllowPartial: true, WithCache: true})
	plan := faultinject.NewPlan(7, faultinject.KillPrimary(1, 3))
	clients := make([]mediator.NodeClient, len(c.Nodes()))
	for i, n := range c.Nodes() {
		clients[i] = faultinject.WrapNode(n, plan, i)
	}
	m, err := mediator.New(mediator.Config{
		Nodes: clients, AllowPartial: true, Retry: fastRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(m, Config{
		MaxConcurrent: 16, BatchWindow: time.Millisecond, MaxBatch: 8,
		Pools: map[string]Pool{
			"viz":   {Priority: 5},
			"batch": {Priority: 0, MaxRunning: 8},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	domain := c.Mediator.Grid().Domain()
	hot := grid.Box{Lo: domain.Lo, Hi: grid.Point{X: domain.Hi.X / 2, Y: domain.Hi.Y, Z: domain.Hi.Z}}
	stream, err := workload.GenerateMulti(workload.MultiParams{
		Params: workload.Params{
			Seed: 3, Queries: 150, Dataset: "isotropic",
			Fields: []string{derived.Vorticity}, Steps: 2, Revisit: 0.5,
			Thresholds: map[string][]float64{derived.Vorticity: {0.8, 1.2, 1.6}},
		},
		Tenants: []workload.TenantProfile{
			{Name: "viz", Hot: hot, HotBias: 0.8, Weight: 2},
			{Name: "batch", Weight: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep, err := workload.Concurrent(ctx, s, stream, 16)
	s.Close()
	if err != nil {
		t.Fatalf("stress run: %v (report %+v)", err, rep)
	}
	if rep.Queries != len(stream) {
		t.Fatalf("ran %d of %d queries", rep.Queries, len(stream))
	}
	// With k=2 replication and AllowPartial, the dead primary must be
	// absorbed: every non-shed query answers.
	if rep.Errors > rep.Shed {
		t.Fatalf("%d failures beyond the %d sheds: %+v", rep.Errors-rep.Shed, rep.Shed, rep)
	}
	if rep.Queries-rep.Errors == 0 {
		t.Fatal("no query succeeded")
	}
	for name, ts := range rep.Tenants {
		if ts.Queries == 0 {
			t.Errorf("tenant %s never ran", name)
		}
	}
	t.Logf("stress: %d queries, %d shed, %d shared scans, %d atoms saved, p99 %v (reroutes absorbed kill of node 1, plan fired %d)",
		rep.Queries, rep.Shed, rep.SharedScans, rep.ScansSaved, rep.P99(), plan.Fired())
}
