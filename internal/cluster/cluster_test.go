package cluster

import (
	"context"
	"testing"
	"time"

	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/node"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sim"
	"github.com/turbdb/turbdb/internal/synth"
)

// testCosts avoids per-test calibration time.
func testCosts() node.CostModel {
	return node.CostModel{
		PerPoint: map[string]time.Duration{
			derived.Velocity:   20 * time.Nanosecond,
			derived.Pressure:   10 * time.Nanosecond,
			derived.Magnetic:   20 * time.Nanosecond,
			derived.Vorticity:  150 * time.Nanosecond,
			derived.Current:    150 * time.Nanosecond,
			derived.QCriterion: 250 * time.Nanosecond,
			derived.RInvariant: 250 * time.Nanosecond,
			derived.GradNorm:   220 * time.Nanosecond,
		},
		Default: 50 * time.Nanosecond,
	}
}

func buildTest(t testing.TB, cfg Config, kind synth.Kind, gridN int) *Cluster {
	t.Helper()
	gen, err := synth.New(synth.Params{N: gridN, Seed: 11, Kind: kind, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Simulate && cfg.Costs.PerPoint == nil {
		cfg.Costs = testCosts()
	}
	c, err := Build(gen, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuildValidation(t *testing.T) {
	gen, _ := synth.New(synth.Params{N: 16, Seed: 1})
	if _, err := Build(gen, Config{Nodes: -1}); err == nil {
		t.Error("accepted negative node count")
	}
}

func TestRealModeQueryAcrossNodes(t *testing.T) {
	c := buildTest(t, Config{Nodes: 4, WithCache: true}, synth.Isotropic, 16)
	q := query.Threshold{Dataset: "isotropic", Field: derived.Vorticity, Threshold: 1.0}
	pts, stats, err := c.Mediator.Threshold(context.Background(), nil, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("no points above threshold")
	}
	if stats.CacheHits != 0 {
		t.Errorf("first query hit %d caches", stats.CacheHits)
	}
	// warm query hits all 4 node caches and returns the same points
	pts2, stats2, err := c.Mediator.Threshold(context.Background(), nil, q)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.CacheHits != 4 {
		t.Errorf("second query hit %d caches, want 4", stats2.CacheHits)
	}
	if len(pts2) != len(pts) {
		t.Fatalf("hit returned %d points, miss %d", len(pts2), len(pts))
	}
	for i := range pts {
		if pts[i] != pts2[i] {
			t.Fatalf("hit/miss mismatch at %d", i)
		}
	}
}

// selectiveThreshold returns a threshold that qualifies ~frac of all points,
// found via a top-k query (thresholds in the paper's experiments qualify
// 0.0004%–0.08% of points, so transfer time does not dominate the scan).
func selectiveThreshold(t testing.TB, c *Cluster, dataset, fieldName string, frac float64) float64 {
	t.Helper()
	n := c.Generator().Grid().N
	k := int(frac * float64(n*n*n))
	if k < 1 {
		k = 1
	}
	var thr float64
	_, err := c.RunQuery(func(p *sim.Proc) error {
		top, _, err := c.Mediator.TopK(context.Background(), p, query.TopK{Dataset: dataset, Field: fieldName, K: k})
		if err != nil {
			return err
		}
		thr = float64(top[len(top)-1].Value)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return thr
}

func TestSimulatedQueryTimings(t *testing.T) {
	gridN := 64
	if testing.Short() {
		gridN = 32 // keeps the -race -short lane fast; assertions are ratios, not absolutes
	}
	// NoSynopsis: the threshold comes from a top-k probe, and the miss timed
	// here is the paper's — a scan of the whole domain.
	c := buildTest(t, Config{Nodes: 4, Processes: 4, WithCache: true, Simulate: true, NoSynopsis: true}, synth.MHD, gridN)
	thr := selectiveThreshold(t, c, "mhd", derived.Vorticity, 0.001)
	q := query.Threshold{Dataset: "mhd", Field: derived.Vorticity, Threshold: thr}

	var missPts, hitPts int
	var missTotal, hitTotal time.Duration
	dur, err := c.RunQuery(func(p *sim.Proc) error {
		pts, stats, err := c.Mediator.Threshold(context.Background(), p, q)
		if err != nil {
			return err
		}
		missPts = len(pts)
		missTotal = stats.Total
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if missPts == 0 {
		t.Fatal("no points; bad threshold for test")
	}
	if dur < missTotal {
		t.Errorf("RunQuery duration %v < query total %v", dur, missTotal)
	}
	if missTotal <= 0 {
		t.Fatal("virtual query time is zero")
	}

	_, err = c.RunQuery(func(p *sim.Proc) error {
		pts, stats, err := c.Mediator.Threshold(context.Background(), p, q)
		if err != nil {
			return err
		}
		hitPts = len(pts)
		hitTotal = stats.Total
		if stats.CacheHits != 4 {
			t.Errorf("cache hits = %d", stats.CacheHits)
		}
		if stats.NodeCritical.IO != 0 || stats.NodeCritical.Compute != 0 {
			t.Errorf("cache hit charged IO/compute: %+v", stats.NodeCritical)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if hitPts != missPts {
		t.Fatalf("hit %d points vs miss %d", hitPts, missPts)
	}
	// The paper's headline: cache hits are over an order of magnitude
	// faster. Allow 5× here as the test grid is small, and 2× on the even
	// smaller -short grid where the fixed lookup cost is a larger share.
	factor := time.Duration(5)
	if testing.Short() {
		factor = 2
	}
	if hitTotal*factor > missTotal {
		t.Errorf("cache hit %v not ≪ miss %v", hitTotal, missTotal)
	}
}

func TestScaleOutSpeedsUpSimulatedQueries(t *testing.T) {
	gridN := 64
	if testing.Short() {
		gridN = 32
	}
	var times []time.Duration
	var thr float64
	for _, nodes := range []int{1, 4} {
		c := buildTest(t, Config{Nodes: nodes, Simulate: true}, synth.Isotropic, gridN)
		if thr == 0 {
			thr = selectiveThreshold(t, c, "isotropic", derived.Vorticity, 0.005)
		}
		q := query.Threshold{Dataset: "isotropic", Field: derived.Vorticity, Threshold: thr}
		var total time.Duration
		_, err := c.RunQuery(func(p *sim.Proc) error {
			_, stats, err := c.Mediator.Threshold(context.Background(), p, q)
			if err != nil {
				return err
			}
			total = stats.Total
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, total)
	}
	speedup := float64(times[0]) / float64(times[1])
	if speedup < 2.0 {
		t.Errorf("scale-out 1→4 nodes speedup %.2f, want ≥ 2", speedup)
	}
}

func TestSimulatedResultsMatchRealResults(t *testing.T) {
	q := query.Threshold{Dataset: "isotropic", Field: derived.QCriterion, Threshold: 0.8}
	cReal := buildTest(t, Config{Nodes: 2}, synth.Isotropic, 16)
	cSim := buildTest(t, Config{Nodes: 2, Simulate: true}, synth.Isotropic, 16)

	realPts, _, err := cReal.Mediator.Threshold(context.Background(), nil, q)
	if err != nil {
		t.Fatal(err)
	}
	var simPts int
	var simFirst, realFirst uint64
	if len(realPts) > 0 {
		realFirst = uint64(realPts[0].Code)
	}
	_, err = cSim.RunQuery(func(p *sim.Proc) error {
		pts, _, err := cSim.Mediator.Threshold(context.Background(), p, q)
		if err != nil {
			return err
		}
		simPts = len(pts)
		if len(pts) > 0 {
			simFirst = uint64(pts[0].Code)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if simPts != len(realPts) || simFirst != realFirst {
		t.Errorf("sim results (%d, first %d) differ from real (%d, first %d)",
			simPts, simFirst, len(realPts), realFirst)
	}
}

func TestPDFAndTopKThroughMediator(t *testing.T) {
	c := buildTest(t, Config{Nodes: 2}, synth.MHD, 16)
	counts, _, err := c.Mediator.PDF(context.Background(), nil, query.PDF{
		Dataset: "mhd", Field: derived.Current, Bins: 10, Width: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range counts {
		total += n
	}
	if total != 16*16*16 {
		t.Errorf("PDF total %d", total)
	}
	top, _, err := c.Mediator.TopK(context.Background(), nil, query.TopK{
		Dataset: "mhd", Field: derived.Current, K: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 10 {
		t.Fatalf("top-k returned %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Value > top[i-1].Value {
			t.Fatal("top-k not descending")
		}
	}
}

func TestDropCacheForcesRecomputation(t *testing.T) {
	c := buildTest(t, Config{Nodes: 2, WithCache: true}, synth.Isotropic, 16)
	q := query.Threshold{Dataset: "isotropic", Field: derived.Vorticity, Threshold: 1.0}
	if _, _, err := c.Mediator.Threshold(context.Background(), nil, q); err != nil {
		t.Fatal(err)
	}
	if err := c.Mediator.DropCache(context.Background(), derived.Vorticity, 0, 0); err != nil {
		t.Fatal(err)
	}
	_, stats, err := c.Mediator.Threshold(context.Background(), nil, q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits != 0 {
		t.Errorf("query after drop hit %d caches", stats.CacheHits)
	}
}

func TestHaloTrafficOnlyForDerivedFields(t *testing.T) {
	c := buildTest(t, Config{Nodes: 4}, synth.MHD, 16)
	// raw magnetic field: kernel of one point, no halo
	_, stats, err := c.Mediator.Threshold(context.Background(), nil, query.Threshold{
		Dataset: "mhd", Field: derived.Magnetic, Threshold: 1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.NodeCritical.HaloAtoms != 0 {
		t.Errorf("raw field fetched %d halo atoms", stats.NodeCritical.HaloAtoms)
	}
	// derived current: needs halo
	_, stats, err = c.Mediator.Threshold(context.Background(), nil, query.Threshold{
		Dataset: "mhd", Field: derived.Current, Threshold: 1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.NodeCritical.HaloAtoms == 0 {
		t.Error("derived field fetched no halo atoms")
	}
}
