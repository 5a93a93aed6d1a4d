package cluster

import (
	"context"
	"sync"
	"testing"

	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/mediator"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/synth"
)

// TestStressConcurrentThresholdQueries is the workload shape the shared-scan
// scheduler will inherit: 8 workers hammer the mediator with threshold
// queries cycling over a small threshold set — cold on first use, warm from
// the semantic cache afterwards — while one node dies mid-run. Under -race
// (the cluster package runs in the race-full CI lane) this exercises the
// node caches, breakers, retry executors and the partial-merge path on
// exactly the interleavings the goroutinelife analyzer reasons about
// statically; a lock-order inversion among them deadlocks here.
func TestStressConcurrentThresholdQueries(t *testing.T) {
	c := buildTest(t, Config{Nodes: 4, WithCache: true, AllowPartial: true}, synth.Isotropic, 16)
	clients := make([]mediator.NodeClient, len(c.Nodes()))
	for i, n := range c.Nodes() {
		if i == 3 {
			// roughly mid-run across the 48 queries below
			clients[i] = &dyingClient{NodeClient: n, killAfter: 20}
		} else {
			clients[i] = n
		}
	}
	m, err := mediator.New(mediator.Config{
		Nodes: clients, AllowPartial: true, Retry: fastRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}

	thresholds := []float64{0.5, 1.0, 2.0}
	const workers = 8
	const iters = 6
	type answer struct {
		threshold float64
		coverage  float64
		points    int
		err       error
	}
	results := make([][]answer, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				th := thresholds[(w+i)%len(thresholds)]
				pts, stats, err := m.Threshold(context.Background(), nil, query.Threshold{
					Dataset: "isotropic", Field: derived.Vorticity, Threshold: th,
				})
				a := answer{threshold: th, points: len(pts), err: err}
				if stats != nil {
					a.coverage = stats.Coverage
				}
				results[w] = append(results[w], a)
			}
		}(w)
	}
	wg.Wait()

	// Partial mode must absorb the node death: no query fails, and any two
	// full-coverage answers for the same threshold (cold or warm, before the
	// death) agree exactly.
	fullPoints := make(map[float64]int)
	sawPartial := false
	for w, answers := range results {
		for i, a := range answers {
			if a.err != nil {
				t.Fatalf("worker %d query %d (threshold %v): %v", w, i, a.threshold, a.err)
			}
			if a.coverage < 1 {
				sawPartial = true
				continue
			}
			if prev, ok := fullPoints[a.threshold]; ok {
				if prev != a.points {
					t.Errorf("threshold %v: full-coverage answers disagree (%d vs %d points)", a.threshold, prev, a.points)
				}
			} else {
				fullPoints[a.threshold] = a.points
			}
		}
	}
	if !sawPartial {
		t.Error("node died mid-run but every answer claims full coverage")
	}
	if len(fullPoints) == 0 {
		t.Error("no query completed at full coverage; the node died too early to mix cold and warm phases")
	}
}
