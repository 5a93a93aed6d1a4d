package cluster

import (
	"context"
	"math"
	"testing"

	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/faultinject"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/synth"
)

// atomsKnown probes node i's synopsis: a +Inf threshold qualifies nothing,
// so the scan prunes exactly the atoms of its shard whose maximum it knows
// (and learns the rest).
func atomsKnown(t *testing.T, c *Cluster, i int, q query.Threshold) int {
	t.Helper()
	q.Threshold, q.Limit = math.Inf(1), 1
	res, err := c.Nodes()[i].GetThreshold(context.Background(), nil, q)
	if err != nil {
		t.Fatal(err)
	}
	return res.Breakdown.AtomsPruned
}

// Through the mediator, against a cluster built with NoSynopsis: a revisit
// at another threshold prunes and answers the same points, a degraded
// (partial-halo) pass teaches the degraded node nothing, and DropCache
// makes the next query a first touch on every node.
func TestSynopsisThroughMediator(t *testing.T) {
	const gridN = 32
	c := buildTest(t, Config{Nodes: 4, AllowPartial: true}, synth.MHD, gridN)
	twin := buildTest(t, Config{Nodes: 4, AllowPartial: true, NoSynopsis: true}, synth.MHD, gridN)
	perNode := c.Generator().Grid().NumAtoms() / 4
	ctx := context.Background()
	q := query.Threshold{Dataset: "mhd", Field: derived.Current}
	top, _, err := twin.Mediator.TopK(ctx, nil, query.TopK{Dataset: "mhd", Field: derived.Current, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	peak := float64(top[0].Value)

	// Node 0 cannot reach its peers during the first scan.
	plan := faultinject.NewPlan(1, &faultinject.Rule{Mode: faultinject.ModeError})
	c.Nodes()[0].SetPeers(faultinject.NewPeerFetcher(&fanPeers{nodes: c.Nodes(), self: 0}, plan))
	q.Threshold = 0.9 * peak
	_, stats, err := c.Mediator.Threshold(ctx, nil, q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.NodeCritical.AtomsSkipped == 0 || plan.Fired() == 0 {
		t.Fatalf("no degradation: %d atoms skipped, %d faults fired", stats.NodeCritical.AtomsSkipped, plan.Fired())
	}
	c.Nodes()[0].SetPeers(&fanPeers{nodes: c.Nodes(), self: 0})
	for i, want := range []int{0, perNode, perNode, perNode} {
		if got := atomsKnown(t, c, i, q); got != want {
			t.Errorf("after the degraded pass node %d knows %d atoms, want %d", i, got, want)
		}
	}

	// Revisits prune, and answer what a cluster that never prunes answers.
	for _, share := range []float64{0.6, 0.3, 0.9} {
		q.Threshold = share * peak
		got, stats, err := c.Mediator.Threshold(ctx, nil, q)
		if err != nil {
			t.Fatal(err)
		}
		want, tstats, err := twin.Mediator.Threshold(ctx, nil, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("at %.1f of the peak: %d points, twin %d", share, len(got), len(want))
		}
		for i := range want {
			if got[i].Code != want[i].Code || math.Float32bits(got[i].Value) != math.Float32bits(want[i].Value) {
				t.Fatalf("at %.1f of the peak: point %d is %v, twin %v", share, i, got[i], want[i])
			}
		}
		bd, tbd := stats.NodeCritical, tstats.NodeCritical
		if bd.AtomsPruned == 0 || tbd.AtomsPruned != 0 ||
			bd.PointsExamined+bd.AtomsPruned*c.Generator().Grid().PointsPerAtom() != tbd.PointsExamined {
			t.Errorf("at %.1f of the peak: pruned %d atoms and examined %d points, twin pruned %d and examined %d",
				share, bd.AtomsPruned, bd.PointsExamined, tbd.AtomsPruned, tbd.PointsExamined)
		}
	}

	// The cluster runs without caches: the drop still reaches the synopsis.
	if err := c.Mediator.DropCache(ctx, derived.Current, 0, 0); err != nil {
		t.Fatal(err)
	}
	_, stats, err = c.Mediator.Threshold(ctx, nil, q)
	if err != nil {
		t.Fatal(err)
	}
	if bd := stats.NodeCritical; bd.AtomsPruned != 0 || bd.PointsExamined != gridN*gridN*gridN {
		t.Errorf("after DropCache the query pruned %d atoms and examined %d points", bd.AtomsPruned, bd.PointsExamined)
	}
}
