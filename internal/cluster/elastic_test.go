package cluster

import (
	"context"
	"fmt"
	"math"
	"testing"

	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/faultinject"
	"github.com/turbdb/turbdb/internal/mediator"
	"github.com/turbdb/turbdb/internal/membership"
	"github.com/turbdb/turbdb/internal/obs"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sim"
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
	pl := c.Placement()
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

// TestElasticJoinLeaveReal grows a 3-node cluster to 4 and back to 3, at
// k = 1 and k = 2, checking answers stay bit-for-bit identical through both
// rebalances.
func TestElasticJoinLeaveReal(t *testing.T) {
	defer obs.VerifyNoLeaks(t)
	for _, k := range []int{1, 2} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			c := buildTest(t, Config{Nodes: 3, Replication: k}, synth.Isotropic, 16)
			ctx := context.Background()
			want, _, err := c.Mediator.Threshold(ctx, nil, chaosQuery())
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatal("reference query returned nothing")
			}

			id, err := c.Join(ctx, nil)
			if err != nil {
				t.Fatal(err)
			}
			if id != 3 {
				t.Fatalf("joined id = %d, want 3", id)
			}
			if st := c.Membership().State(id); st != membership.Alive {
				t.Fatalf("joined node state = %v, want Alive", st)
			}
			pl := c.Placement()
			if len(pl.Members) != 4 {
				t.Fatalf("placement has %d members after join, want 4", len(pl.Members))
			}
			for i, owners := range pl.Owners {
				if len(owners) != k {
					t.Fatalf("range %d has %d owners, want %d", i, len(owners), k)
				}
			}
			got, stats, err := c.Mediator.Threshold(ctx, nil, chaosQuery())
			if err != nil {
				t.Fatal(err)
			}
			if stats.Coverage != 1 {
				t.Errorf("post-join Coverage = %v, want 1", stats.Coverage)
			}
			sameBits(t, got, want, "after join")

			if err := c.Leave(ctx, nil, 0); err != nil {
				t.Fatal(err)
			}
			if st := c.Membership().State(0); st != membership.Left {
				t.Fatalf("left node state = %v, want Left", st)
			}
			pl = c.Placement()
			for i, owners := range pl.Owners {
				for _, o := range owners {
					if o == 0 {
						t.Fatalf("range %d still routed to departed node 0", i)
					}
				}
			}
			got, stats, err = c.Mediator.Threshold(ctx, nil, chaosQuery())
			if err != nil {
				t.Fatal(err)
			}
			if stats.Coverage != 1 {
				t.Errorf("post-leave Coverage = %v, want 1", stats.Coverage)
			}
			sameBits(t, got, want, "after leave")

			if v := c.Placement().Version; v != 3 {
				t.Errorf("topology version = %d after two rebalances, want 3", v)
			}
		})
	}
}

// TestElasticRebalance64NodeSimulated is the DES scenario: a 64-node k=2
// simulated cluster rebalances through a join and a leave while
// full-coverage queries run concurrently on the virtual clock. Every
// answer — before, during and after the rebalances — must be complete and
// bit-for-bit identical.
func TestElasticRebalance64NodeSimulated(t *testing.T) {
	defer obs.VerifyNoLeaks(t)
	if testing.Short() {
		t.Skip("64-node DES scenario is not a -short test")
	}
	// 64³ grid → 512 atoms, enough for 65 members to each own a range.
	c := buildTest(t, Config{Nodes: 64, Replication: 2, Simulate: true}, synth.Isotropic, 64)
	ctx := context.Background()

	var want []query.ResultPoint
	if _, err := c.RunQuery(func(p *sim.Proc) error {
		pts, _, err := c.Mediator.Threshold(ctx, p, chaosQuery())
		want = pts
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("reference query returned nothing")
	}

	type answer struct {
		pts   []query.ResultPoint
		stats *mediator.QueryStats
		err   error
	}
	answers := make([]answer, 6)
	for i := range answers {
		i := i
		c.Kernel.Go("query", func(p *sim.Proc) {
			a := &answers[i]
			a.pts, a.stats, a.err = c.Mediator.Threshold(ctx, p, chaosQuery())
		})
	}
	var joinID int
	var joinErr, leaveErr error
	c.Kernel.Go("rebalance", func(p *sim.Proc) {
		joinID, joinErr = c.Join(ctx, p)
		if joinErr != nil {
			return
		}
		leaveErr = c.Leave(ctx, p, 3)
	})
	if err := c.Kernel.Run(); err != nil {
		t.Fatal(err)
	}
	if joinErr != nil {
		t.Fatalf("join: %v", joinErr)
	}
	if leaveErr != nil {
		t.Fatalf("leave: %v", leaveErr)
	}
	if joinID != 64 {
		t.Fatalf("joined id = %d, want 64", joinID)
	}
	for i, a := range answers {
		if a.err != nil {
			t.Fatalf("concurrent query %d: %v", i, a.err)
		}
		if a.stats.Coverage != 1 || a.stats.Partial() {
			t.Fatalf("concurrent query %d: Coverage=%v Failures=%+v", i, a.stats.Coverage, a.stats.Failures)
		}
		sameBits(t, a.pts, want, "concurrent query during rebalance")
	}

	// Post-rebalance: placement spans 64 members (65 joined, 1 left), node
	// 3 takes no traffic, and a fresh query still matches.
	pl := c.Placement()
	if len(pl.Members) != 64 {
		t.Fatalf("placement has %d members, want 64", len(pl.Members))
	}
	for i, owners := range pl.Owners {
		if len(owners) != 2 {
			t.Fatalf("range %d has %d owners, want 2", i, len(owners))
		}
		for _, o := range owners {
			if o == 3 {
				t.Fatalf("range %d still routed to departed node 3", i)
			}
		}
	}
	var got []query.ResultPoint
	if _, err := c.RunQuery(func(p *sim.Proc) error {
		pts, stats, err := c.Mediator.Threshold(ctx, p, chaosQuery())
		if err == nil && stats.Coverage != 1 {
			t.Errorf("post-rebalance Coverage = %v, want 1", stats.Coverage)
		}
		got = pts
		return err
	}); err != nil {
		t.Fatal(err)
	}
	sameBits(t, got, want, "after rebalances")
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
