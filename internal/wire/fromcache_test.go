package wire

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/turbdb/turbdb/internal/cluster"
	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/faultinject"
	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/mediator"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/synth"
)

// TestFromCacheAfterPrimaryDeath: under k = 2 a dead primary is routed
// around once its breaker opens — its ranges join the replica's request —
// so a query merges fewer node answers than there are registered nodes.
// The user hop must still report a fully cached answer as such, on both
// encodings.
func TestFromCacheAfterPrimaryDeath(t *testing.T) {
	gen, err := synth.New(synth.Params{N: 16, Seed: 21, Kind: synth.Isotropic})
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.Build(gen, cluster.Config{Nodes: 3, Replication: 2, WithCache: true})
	if err != nil {
		t.Fatal(err)
	}
	plan := faultinject.NewPlan(7, faultinject.KillPrimary(1, 0))
	clients := make([]mediator.NodeClient, len(c.Nodes()))
	for i, n := range c.Nodes() {
		clients[i] = n
	}
	clients[1] = faultinject.WrapNode(c.Nodes()[1], plan, 1)
	pl := c.Placement()
	m, err := mediator.New(mediator.Config{
		Nodes: clients, Retry: fastRetryPolicy(),
		Breaker:  &faulttol.BreakerConfig{FailureThreshold: 1, Cooldown: time.Hour},
		Topology: &mediator.Topology{Version: 1, Ranges: pl.Ranges, Owners: pl.Owners},
		Members:  c.Membership(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewMediatorServer(m).Handler())
	t.Cleanup(srv.Close)

	ctx := context.Background()
	if _, _, err := m.TopK(ctx, nil, query.TopK{Dataset: "isotropic", Field: derived.Vorticity, K: 1}); err != nil {
		t.Fatalf("query with a dead primary: %v", err)
	}
	if plan.Fired() == 0 || m.BreakerState(1) != faulttol.Open {
		t.Fatalf("node 1 was not taken out of routing: %d faults fired, breaker %v", plan.Fired(), m.BreakerState(1))
	}
	// The second encoding asks below the first one's threshold, so its
	// first query is a miss again.
	for _, tc := range []struct {
		proto     Proto
		threshold float64
	}{{ProtoJSON, 2.0}, {ProtoFrame, 1.5}} {
		cli := NewClient(srv.URL, WithProto(tc.proto))
		q := query.Threshold{Dataset: "isotropic", Field: derived.Vorticity, Threshold: tc.threshold}
		pts, first, err := cli.ThresholdStats(ctx, q, false)
		if err != nil {
			t.Fatalf("%s: query with a dead primary: %v", tc.proto, err)
		}
		if len(pts) == 0 || first.Coverage != 1 {
			t.Fatalf("%s: %d points at coverage %v, want a complete answer", tc.proto, len(pts), first.Coverage)
		}
		if first.FromCache {
			t.Errorf("%s: cold query reports fromCache", tc.proto)
		}
		again, second, err := cli.ThresholdStats(ctx, q, false)
		if err != nil {
			t.Fatal(err)
		}
		samePoints(t, string(tc.proto)+" repeat", again, pts)
		if !second.FromCache {
			t.Errorf("%s: repeat of a fully cached query reports fromCache=false", tc.proto)
		}
	}
}
