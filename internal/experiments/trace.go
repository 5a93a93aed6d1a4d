package experiments

import (
	"context"
	"fmt"
	"strings"

	"github.com/turbdb/turbdb/internal/cluster"
	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/mediator"
	"github.com/turbdb/turbdb/internal/obs"
	"github.com/turbdb/turbdb/internal/query"
)

// RunThresholdTraced is RunThreshold with a distributed trace attached; the
// trace runs on the cluster's virtual clock, so span durations are the same
// simulated timings the experiments report.
func RunThresholdTraced(c *cluster.Cluster, q query.Threshold) ([]query.ResultPoint, *mediator.QueryStats, *obs.Trace, error) {
	tr := obs.NewTrace(obs.NewTraceID(), c.Kernel.Now)
	ctx := obs.ContextWithTrace(context.Background(), tr)
	pts, stats, err := runQuery(ctx, c, c.Mediator.Threshold, q)
	if err != nil {
		return nil, nil, nil, err
	}
	return pts, stats, tr, nil
}

// TraceResult holds the rendered span trees of the trace demonstration.
type TraceResult struct {
	Field     string
	Threshold float64
	Points    int
	Cold      string // cold-cache span tree
	Warm      string // same query against the warmed cache
}

func (r TraceResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query trace: ‖%s‖ ≥ %.4g (%d points), virtual cluster time\n\n", r.Field, r.Threshold, r.Points)
	b.WriteString("cold cache:\n")
	b.WriteString(r.Cold)
	b.WriteString("\nwarm cache (same query again):\n")
	b.WriteString(r.Warm)
	return b.String()
}

// TraceDemo runs one medium-level vorticity threshold query twice — cold and
// against the warmed cache — and renders both distributed span trees
// (mediator plan/fan-out/merge, per-node scan phases). This is the -trace
// mode of turbdb-bench.
func (e *Env) TraceDemo(step int) (TraceResult, error) {
	c, err := e.Cluster(ClusterOpts{WithCache: true})
	if err != nil {
		return TraceResult{}, err
	}
	levels, err := e.Levels(c, derived.Vorticity, step)
	if err != nil {
		return TraceResult{}, err
	}
	q := query.Threshold{
		Dataset: e.Dataset(), Field: derived.Vorticity, Timestep: step,
		Threshold: levels[1].Threshold,
	}
	// Levels warmed the cache with this exact query; make the first run cold.
	if err := c.Mediator.DropCache(context.Background(), derived.Vorticity, 0, step); err != nil {
		return TraceResult{}, err
	}
	pts, _, cold, err := RunThresholdTraced(c, q)
	if err != nil {
		return TraceResult{}, err
	}
	_, _, warm, err := RunThresholdTraced(c, q)
	if err != nil {
		return TraceResult{}, err
	}
	return TraceResult{
		Field: derived.Vorticity, Threshold: q.Threshold, Points: len(pts),
		Cold: cold.Tree(), Warm: warm.Tree(),
	}, nil
}
