package cluster

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"github.com/turbdb/turbdb/internal/mediator"
	"github.com/turbdb/turbdb/internal/obs"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/synth"
)

// The obs differential tests prove the observability layer is inert: with
// a trace attached a query returns exactly the same points and the same
// coverage as without one. Run under -race they also certify that span
// recording from concurrent query workers is race-free.

// runObsCase runs one threshold query on a fresh chaos cluster (node 2 dead
// from the first call, partial mode), traced or not.
func runObsCase(t *testing.T, trace bool) ([]query.ResultPoint, *mediator.QueryStats) {
	t.Helper()
	_, m, _ := chaosMediator(t, true, 2, 0)
	ctx := context.Background()
	var tr *obs.Trace
	if trace {
		tr = obs.NewTrace(obs.NewTraceID(), nil)
		ctx = obs.ContextWithTrace(ctx, tr)
	}
	pts, stats, err := m.Threshold(ctx, nil, chaosQuery())
	if err != nil {
		t.Fatalf("threshold (trace=%v): %v", trace, err)
	}
	if trace && len(tr.Spans()) == 0 {
		t.Fatal("traced query recorded no spans; instrumentation path not exercised")
	}
	return pts, stats
}

// samePoints compares result sets exactly (locations and float32 value bits).
func samePoints(a, b []query.ResultPoint) error {
	if len(a) != len(b) {
		return fmt.Errorf("length %d != %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Code != b[i].Code {
			return fmt.Errorf("point %d: code %d != %d", i, a[i].Code, b[i].Code)
		}
		if math.Float32bits(a[i].Value) != math.Float32bits(b[i].Value) {
			return fmt.Errorf("point %d: value bits %08x != %08x",
				i, math.Float32bits(a[i].Value), math.Float32bits(b[i].Value))
		}
	}
	return nil
}

// TestObsDifferentialChaos compares the degraded chaos query untraced and
// traced. The points and the Coverage annotation must match exactly.
func TestObsDifferentialChaos(t *testing.T) {
	onPts, onStats := runObsCase(t, false)
	trPts, trStats := runObsCase(t, true)

	if err := samePoints(onPts, trPts); err != nil {
		t.Fatalf("traced answer differs from untraced: %v", err)
	}
	if onStats.Coverage != trStats.Coverage {
		t.Fatalf("Coverage diverged: untraced=%v traced=%v", onStats.Coverage, trStats.Coverage)
	}
	if len(onStats.Failures) != len(trStats.Failures) {
		t.Fatalf("Failures diverged: untraced=%d traced=%d", len(onStats.Failures), len(trStats.Failures))
	}
	if onStats.Coverage >= 1 || onStats.Coverage <= 0 {
		t.Fatalf("Coverage = %v; the chaos scenario did not degrade, differential vacuous", onStats.Coverage)
	}
}

// TestObsDifferentialHealthy is the same differential on a healthy cluster:
// complete answers, Coverage 1, bit-for-bit equal untraced and traced.
func TestObsDifferentialHealthy(t *testing.T) {
	run := func(trace bool) []query.ResultPoint {
		c := buildTest(t, Config{Nodes: 4}, synth.Isotropic, 16)
		ctx := context.Background()
		if trace {
			ctx = obs.ContextWithTrace(ctx, obs.NewTrace(obs.NewTraceID(), nil))
		}
		pts, _, err := c.Mediator.Threshold(ctx, nil, chaosQuery())
		if err != nil {
			t.Fatalf("threshold (trace=%v): %v", trace, err)
		}
		return pts
	}
	on := run(false)
	traced := run(true)
	if len(on) == 0 {
		t.Fatal("reference query returned nothing")
	}
	if err := samePoints(on, traced); err != nil {
		t.Fatalf("traced answer differs from untraced: %v", err)
	}
}

// TestObsTracedConcurrentQueries fires concurrent traced queries at one
// cluster; under -race this certifies concurrent span recording (many
// queries × many per-node workers into per-query traces) and that every
// query still returns the same answer.
func TestObsTracedConcurrentQueries(t *testing.T) {
	c := buildTest(t, Config{Nodes: 4}, synth.Isotropic, 16)
	ref, _, err := c.Mediator.Threshold(context.Background(), nil, chaosQuery())
	if err != nil {
		t.Fatal(err)
	}
	const workers = 6
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := obs.NewTrace(obs.NewTraceID(), nil)
			ctx := obs.ContextWithTrace(context.Background(), tr)
			pts, _, err := c.Mediator.Threshold(ctx, nil, chaosQuery())
			if err != nil {
				errCh <- err
				return
			}
			if err := samePoints(ref, pts); err != nil {
				errCh <- fmt.Errorf("traced concurrent answer differs: %w", err)
				return
			}
			if len(tr.Spans()) == 0 {
				errCh <- fmt.Errorf("trace %s recorded no spans", tr.ID())
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
