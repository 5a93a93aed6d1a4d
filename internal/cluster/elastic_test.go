package cluster

import (
	"context"
	"math"
	"testing"

	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/faultinject"
	"github.com/turbdb/turbdb/internal/mediator"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/synth"
)

// samePoints compares two answers bit-for-bit: same codes, same
// Float32bits of every value.
func sameBits(t *testing.T, got, want []query.ResultPoint, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Code != want[i].Code ||
			math.Float32bits(got[i].Value) != math.Float32bits(want[i].Value) {
			t.Fatalf("%s: point %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestReplicatedBuildMatchesLegacy pins the k=2 layout to the legacy
// answers: replication changes where data lives, never what a query
// returns.
func TestReplicatedBuildMatchesLegacy(t *testing.T) {
	legacy := buildTest(t, Config{Nodes: 4}, synth.Isotropic, 16)
	repl := buildTest(t, Config{Nodes: 4, Replication: 2}, synth.Isotropic, 16)
	ctx := context.Background()

	wantPts, _, err := legacy.Mediator.Threshold(ctx, nil, chaosQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(wantPts) == 0 {
		t.Fatal("reference threshold query returned nothing")
	}
	gotPts, stats, err := repl.Mediator.Threshold(ctx, nil, chaosQuery())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Coverage != 1 || stats.Reroutes != 0 {
		t.Errorf("healthy replicated query: Coverage=%v Reroutes=%d, want 1 and 0", stats.Coverage, stats.Reroutes)
	}
	sameBits(t, gotPts, wantPts, "threshold")

	pq := query.PDF{Dataset: "isotropic", Field: derived.Vorticity, Bins: 12, Width: 0.5}
	wantPDF, _, err := legacy.Mediator.PDF(ctx, nil, pq)
	if err != nil {
		t.Fatal(err)
	}
	gotPDF, _, err := repl.Mediator.PDF(ctx, nil, pq)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantPDF {
		if gotPDF[i] != wantPDF[i] {
			t.Fatalf("pdf bin %d = %d, want %d", i, gotPDF[i], wantPDF[i])
		}
	}

	kq := query.TopK{Dataset: "isotropic", Field: derived.Vorticity, K: 7}
	wantTop, _, err := legacy.Mediator.TopK(ctx, nil, kq)
	if err != nil {
		t.Fatal(err)
	}
	gotTop, _, err := repl.Mediator.TopK(ctx, nil, kq)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, gotTop, wantTop, "topk")
}

// replicatedChaos builds a k=2 replicated 4-node cluster plus a mediator
// whose listed nodes die from their first call on.
func replicatedChaos(t *testing.T, allowPartial bool, kills ...int) (*Cluster, *mediator.Mediator) {
	t.Helper()
	c := buildTest(t, Config{Nodes: 4, Replication: 2, AllowPartial: allowPartial}, synth.Isotropic, 16)
	clients := make([]mediator.NodeClient, len(c.Nodes()))
	for i, n := range c.Nodes() {
		clients[i] = n
		for _, k := range kills {
			if i == k {
				clients[i] = &dyingClient{NodeClient: n}
			}
		}
	}
	m, err := mediator.New(mediator.Config{
		Nodes: clients, AllowPartial: allowPartial, Retry: fastRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, m
}

// TestFailoverAbsorbsPrimaryDeath is the tentpole acceptance check: with
// k=2, killing one node mid-workload yields Coverage==1 answers that are
// bit-for-bit identical to the healthy cluster's, across all three query
// types — partial results become a last resort, not the first response.
func TestFailoverAbsorbsPrimaryDeath(t *testing.T) {
	healthy := buildTest(t, Config{Nodes: 4}, synth.Isotropic, 16)
	ctx := context.Background()
	wantPts, _, err := healthy.Mediator.Threshold(ctx, nil, chaosQuery())
	if err != nil {
		t.Fatal(err)
	}
	pq := query.PDF{Dataset: "isotropic", Field: derived.Vorticity, Bins: 12, Width: 0.5}
	wantPDF, _, err := healthy.Mediator.PDF(ctx, nil, pq)
	if err != nil {
		t.Fatal(err)
	}
	kq := query.TopK{Dataset: "isotropic", Field: derived.Vorticity, K: 7}
	wantTop, _, err := healthy.Mediator.TopK(ctx, nil, kq)
	if err != nil {
		t.Fatal(err)
	}

	_, m := replicatedChaos(t, true, 2)

	pts, stats, err := m.Threshold(ctx, nil, chaosQuery())
	if err != nil {
		t.Fatalf("replicated mediator failed despite a live replica: %v", err)
	}
	if stats.Coverage != 1 || stats.Partial() {
		t.Errorf("threshold: Coverage=%v Failures=%+v, want a complete answer", stats.Coverage, stats.Failures)
	}
	if stats.Reroutes == 0 {
		t.Error("threshold: node 2 died but no range was rerouted")
	}
	sameBits(t, pts, wantPts, "threshold after failover")

	counts, stats, err := m.PDF(ctx, nil, pq)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Coverage != 1 {
		t.Errorf("pdf: Coverage = %v, want 1", stats.Coverage)
	}
	for i := range wantPDF {
		if counts[i] != wantPDF[i] {
			t.Fatalf("pdf after failover: bin %d = %d, want %d", i, counts[i], wantPDF[i])
		}
	}

	top, stats, err := m.TopK(ctx, nil, kq)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Coverage != 1 {
		t.Errorf("topk: Coverage = %v, want 1", stats.Coverage)
	}
	sameBits(t, top, wantTop, "topk after failover")
}

// TestFailoverAllReplicasDown kills both owners of one range: partial mode
// degrades with the same coverage accounting as the unreplicated mediator,
// and the failure records the range the answer is missing.
func TestFailoverAllReplicasDown(t *testing.T) {
	c, m := replicatedChaos(t, true, 2, 3)
	pl := c.Mediator.Topology()
	// Ring placement: range 2 is owned by exactly {2, 3} — both dead.
	dead := pl.Ranges[2]

	pts, stats, err := m.Threshold(context.Background(), nil, chaosQuery())
	if err != nil {
		t.Fatalf("partial mode failed outright: %v", err)
	}
	if stats.Coverage <= 0 || stats.Coverage >= 1 {
		t.Errorf("Coverage = %v, want in (0, 1)", stats.Coverage)
	}
	if !stats.Partial() || len(stats.Failures) != 1 {
		t.Fatalf("Failures = %+v, want exactly the doubly-dead range", stats.Failures)
	}
	if stats.Failures[0].Owned != dead {
		t.Errorf("failed range = %v, want %v", stats.Failures[0].Owned, dead)
	}
	g := c.Generator().Grid()
	for _, p := range pts {
		if dead.Contains(g.AtomCode(p.Coords())) {
			t.Fatalf("answer contains point %+v from the dead range", p)
		}
	}
}

// TestFailoverStrictModeFails keeps all-or-nothing semantics: with every
// replica of a range down and AllowPartial off, the query errors.
func TestFailoverStrictModeFails(t *testing.T) {
	_, m := replicatedChaos(t, false, 2, 3)
	if _, _, err := m.Threshold(context.Background(), nil, chaosQuery()); err == nil {
		t.Fatal("strict replicated mediator answered with a range fully down")
	}
}

// TestFaultPlanKillPrimaryFailsOver composes the faultinject membership
// actions with the replicated mediator: a seeded plan kills a primary
// after its first answered query, and failover keeps every later answer
// complete and identical.
func TestFaultPlanKillPrimaryFailsOver(t *testing.T) {
	c := buildTest(t, Config{Nodes: 4, Replication: 2, AllowPartial: true}, synth.Isotropic, 16)
	ctx := context.Background()
	want, _, err := c.Mediator.Threshold(ctx, nil, chaosQuery())
	if err != nil {
		t.Fatal(err)
	}

	plan := faultinject.NewPlan(1, faultinject.KillPrimary(1, 1))
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

	// First query: node 1 is still up (KillPrimary fires after 1 call).
	pts, stats, err := m.Threshold(ctx, nil, chaosQuery())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Coverage != 1 {
		t.Fatalf("pre-kill Coverage = %v, want 1", stats.Coverage)
	}
	sameBits(t, pts, want, "before kill")

	// Node 1 is now dead for good; its replica must absorb every later query.
	for i := 0; i < 3; i++ {
		pts, stats, err = m.Threshold(ctx, nil, chaosQuery())
		if err != nil {
			t.Fatalf("query %d after kill: %v", i, err)
		}
		if stats.Coverage != 1 || stats.Partial() {
			t.Fatalf("query %d after kill: Coverage=%v Failures=%+v", i, stats.Coverage, stats.Failures)
		}
		sameBits(t, pts, want, "after kill")
	}
	if stats.Reroutes == 0 {
		t.Error("primary died but no range was rerouted")
	}
	if plan.Fired() == 0 {
		t.Error("plan never fired")
	}
}
