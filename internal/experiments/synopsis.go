package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/query"
)

// SynopsisRow is one threshold level of the synopsis-miss experiment.
type SynopsisRow struct {
	Table1Row
	// SynopsisMiss is a cache miss on nodes that have scanned the time-step
	// before: the cached entry holds a higher threshold, so the query is
	// evaluated from the raw data, over the atoms the synopsis cannot rule
	// out.
	SynopsisMiss time.Duration
	// Pruned is the share of the domain's atoms that evaluation left out.
	Pruned float64
}

// SynopsisResult sets the synopsis miss — this repository's extension —
// beside Table 1's no-cache, miss and hit times.
type SynopsisResult struct {
	Field string
	Rows  []SynopsisRow
}

// String renders the table in Table 1's layout.
func (r *SynopsisResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension to Table 1 — a miss on nodes that know the atoms' maxima (%s)\n", r.Field)
	fmt.Fprintf(&b, "%8s %10s %9s | %10s %10s %10s %10s | %8s\n",
		"level", "threshold", "points", "no cache", "miss", "syn. miss", "hit", "pruned")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8s %10.3f %9d | %sms %sms %sms %sms | %7.1f%%\n",
			row.Level.Name, row.Level.Threshold, row.Level.Points,
			ms(row.NoCache), ms(row.Miss), ms(row.SynopsisMiss), ms(row.Hit), 100*row.Pruned)
	}
	return b.String()
}

// SynopsisMiss measures, at the paper's three levels, the miss that follows
// an earlier scan of the same (field, order, time-step): per level, drop
// everything, scan at a quarter above the level's threshold (a first touch,
// which the nodes' synopsis learns from), then time the level's own query —
// too low for the entry just cached, so a miss, but one that reads and
// derives only the atoms whose maximum reaches the threshold. No-cache,
// miss and hit come from Table1CacheEffectiveness on the paper's system.
func (e *Env) SynopsisMiss(step int) (*SynopsisResult, error) {
	base, err := e.Table1CacheEffectiveness(step)
	if err != nil {
		return nil, err
	}
	c, err := e.build(ClusterOpts{WithCache: true}, false)
	if err != nil {
		return nil, err
	}
	atoms := c.Generator().Grid().NumAtoms()
	res := &SynopsisResult{Field: base.Field}
	for _, row := range base.Rows {
		if err := c.Mediator.DropCache(context.Background(), base.Field, 0, step); err != nil {
			return nil, err
		}
		q := query.Threshold{
			Dataset: e.Dataset(), Field: derived.Vorticity, Timestep: step,
			Threshold: 1.25 * row.Level.Threshold,
		}
		if _, _, err := RunThreshold(c, q); err != nil {
			return nil, err
		}
		q.Threshold = row.Level.Threshold
		pts, stats, err := RunThreshold(c, q)
		if err != nil {
			return nil, err
		}
		if stats.CacheHits != 0 || len(pts) != row.Level.Points {
			return nil, fmt.Errorf("synopsis miss: %d cache hits and %d points, expected a miss with %d",
				stats.CacheHits, len(pts), row.Level.Points)
		}
		res.Rows = append(res.Rows, SynopsisRow{
			Table1Row:    row,
			SynopsisMiss: stats.Total,
			Pruned:       float64(stats.NodeCritical.AtomsPruned) / float64(atoms),
		})
	}
	return res, nil
}
