// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. 5) against the synthetic dataset and the simulated
// cluster: Fig. 2 (vorticity-norm PDF), Fig. 3 (FoF worms), Fig. 4 (points
// above 7×RMS), Table 1 / Fig. 6 (cache effectiveness), Fig. 7 (scale-up
// and scale-out), Fig. 8 (total vs I/O-only time), Fig. 9 (execution-time
// breakdowns), and the Sec. 5.3 integrated-vs-local comparison — plus
// ablations beyond the paper (FD order, atom size, cache capacity,
// structured workloads).
//
// Experiments run the real threshold engine over real synthesized data on
// the discrete-event cluster simulation, so reported durations are virtual
// cluster time with shapes that emerge from the resource model. The grid is
// smaller than the JHTDB's 1024³ production grids; every experiment keeps
// the paper's *relative* workload parameters (result-set fractions of the
// total point count) and EXPERIMENTS.md records paper-vs-measured values
// side by side.
//
// Simulated timings are deterministic: repeats are only needed where cache
// state changes between runs, not to average noise.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"github.com/turbdb/turbdb/internal/cluster"
	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/field"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/mediator"
	"github.com/turbdb/turbdb/internal/node"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sim"
	"github.com/turbdb/turbdb/internal/synth"
)

// Setup fixes the dataset and default cluster shape for a harness run.
type Setup struct {
	// GridN is the synthetic grid side (default 64; the paper uses 1024).
	GridN int
	// AtomSide is the database atom side (default 8, as in production).
	AtomSide int
	// Steps is the number of synthesized time-steps (default 4).
	Steps int
	// Seed fixes the dataset (default 2015, the paper's year).
	Seed int64
	// Nodes is the default cluster size (default 4 — the MHD dataset's
	// production partitioning).
	Nodes int
	// Processes is the default per-node worker count (default 4, the
	// configuration of the paper's Fig. 6/9 runs).
	Processes int
}

// withDefaults fills zero values.
func (s Setup) withDefaults() Setup {
	if s.GridN == 0 {
		s.GridN = 64
	}
	if s.AtomSide == 0 {
		s.AtomSide = grid.DefaultAtomSide
	}
	if s.Steps == 0 {
		s.Steps = 4
	}
	if s.Seed == 0 {
		s.Seed = 2015
	}
	if s.Nodes == 0 {
		s.Nodes = 4
	}
	if s.Processes == 0 {
		s.Processes = 4
	}
	return s
}

// memoSource wraps a generator, memoizing whole-domain blocks so that the
// spectral synthesis runs once per (field, step) across all cluster builds.
type memoSource struct {
	gen *synth.Generator
	g   grid.Grid // may override the generator's atom side

	mu     *sync.Mutex
	blocks map[string]*field.Block // guarded by mu
}

func (m *memoSource) Grid() grid.Grid             { return m.g }
func (m *memoSource) RawFields() []synth.RawField { return m.gen.RawFields() }
func (m *memoSource) Steps() int                  { return m.gen.Steps() }
func (m *memoSource) Name() string                { return m.gen.Name() }

func (m *memoSource) Field(name string, step int) (*field.Block, error) {
	key := fmt.Sprintf("%s/%d", name, step)
	m.mu.Lock()
	defer m.mu.Unlock()
	if bl, ok := m.blocks[key]; ok {
		return bl, nil
	}
	bl, err := m.gen.Field(name, step)
	if err != nil {
		return nil, err
	}
	m.blocks[key] = bl
	return bl, nil
}

// withAtomSide returns a view of the same data re-atomized at a different
// atom side (the blocks are whole-domain, so only ingest slicing changes).
func (m *memoSource) withAtomSide(atomSide int) (*memoSource, error) {
	g, err := grid.New(m.g.N, atomSide, m.g.Dx)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return &memoSource{gen: m.gen, g: g, blocks: m.blocks, mu: m.mu}, nil
}

// Env is a prepared experiment environment: the dataset, the calibrated
// compute-cost model, and builders for simulated clusters.
type Env struct {
	Setup Setup
	src   *memoSource
	costs node.CostModel
}

// NewEnv synthesizes the dataset lazily and calibrates per-point compute
// costs on this host (so simulated compute/I/O ratios are measured, not
// guessed).
func NewEnv(s Setup) (*Env, error) {
	costs, err := node.Calibrate(derived.Standard(), query.DefaultFDOrder)
	if err != nil {
		return nil, err
	}
	return newEnv(s, costs)
}

// newEnv is NewEnv with the compute-cost model given: the shape tests pass
// one recorded from a calibration, so their figures do not move with the
// speed of the host that runs them.
func newEnv(s Setup, costs node.CostModel) (*Env, error) {
	s = s.withDefaults()
	gen, err := synth.New(synth.Params{
		N: s.GridN, AtomSide: s.AtomSide, Seed: s.Seed,
		Kind: synth.MHD, Steps: s.Steps,
	})
	if err != nil {
		return nil, err
	}
	return &Env{
		Setup: s,
		src:   &memoSource{gen: gen, g: gen.Grid(), blocks: make(map[string]*field.Block), mu: &sync.Mutex{}},
		costs: costs,
	}, nil
}

// Dataset returns the dataset name ("mhd").
func (e *Env) Dataset() string { return e.src.Name() }

// Points returns the total grid points per time-step.
func (e *Env) Points() int {
	n := e.Setup.GridN
	return n * n * n
}

// Costs returns the calibrated compute-cost model.
func (e *Env) Costs() node.CostModel { return e.costs }

// ClusterOpts tweaks a cluster build.
type ClusterOpts struct {
	Nodes     int
	Processes int
	WithCache bool
	CacheCap  int64
	AtomSide  int // 0 = the setup's atom side
}

// Cluster builds a simulated cluster over the environment's dataset. The
// nodes keep no max-norm synopsis: the experiments reproduce the paper's
// system, whose every miss reads and derives its whole box.
func (e *Env) Cluster(o ClusterOpts) (*cluster.Cluster, error) {
	return e.build(o, true)
}

// build is Cluster with the nodes' synopsis switchable (SynopsisMiss, this
// repository's extension, measures with it on).
func (e *Env) build(o ClusterOpts, noSynopsis bool) (*cluster.Cluster, error) {
	if o.Nodes == 0 {
		o.Nodes = e.Setup.Nodes
	}
	if o.Processes == 0 {
		o.Processes = e.Setup.Processes
	}
	src := e.src
	if o.AtomSide != 0 && o.AtomSide != src.g.AtomSide {
		var err error
		src, err = e.src.withAtomSide(o.AtomSide)
		if err != nil {
			return nil, err
		}
	}
	return cluster.Build(src, cluster.Config{
		Nodes: o.Nodes, Processes: o.Processes,
		WithCache: o.WithCache, CacheCapacity: o.CacheCap,
		Simulate: true, Costs: e.costs, NoSynopsis: noSynopsis,
	})
}

// RunThreshold executes one threshold query as a simulated user and returns
// the merged points plus cluster-level stats.
func RunThreshold(c *cluster.Cluster, q query.Threshold) ([]query.ResultPoint, *mediator.QueryStats, error) {
	return runQuery(context.Background(), c, c.Mediator.Threshold, q)
}

// RunPDF executes one PDF query in the simulation.
func RunPDF(c *cluster.Cluster, q query.PDF) ([]int64, *mediator.QueryStats, error) {
	return runQuery(context.Background(), c, c.Mediator.PDF, q)
}

// RunTopK executes one top-k query in the simulation.
func RunTopK(c *cluster.Cluster, q query.TopK) ([]query.ResultPoint, *mediator.QueryStats, error) {
	return runQuery(context.Background(), c, c.Mediator.TopK, q)
}

// runQuery runs one mediator query as a simulated user: ask is the
// mediator method, and its answer comes back with the query's stats.
func runQuery[Q, A any](ctx context.Context, c *cluster.Cluster, ask func(context.Context, *sim.Proc, Q) (A, *mediator.QueryStats, error), q Q) (A, *mediator.QueryStats, error) {
	var answer A
	var stats *mediator.QueryStats
	_, err := c.RunQuery(func(p *sim.Proc) error {
		var qerr error
		answer, stats, qerr = ask(ctx, p, q)
		return qerr
	})
	if err != nil {
		var none A
		return none, nil, err
	}
	return answer, stats, nil
}

// Level is one threshold level of the paper's experiments.
type Level struct {
	// Name is "high", "medium" or "low".
	Name string
	// PaperPoints is the result size the paper reports at 1024³.
	PaperPoints int
	// Threshold is the value chosen on our dataset to match the paper's
	// result-set *fraction*.
	Threshold float64
	// Points is the actual result size at that threshold here.
	Points int
}

// paperTotal is the paper's per-time-step point count (1024³).
const paperTotal = 1 << 30

// paperLevels returns the paper's (name, points) rows for a field.
func paperLevels(fieldName string) [3]struct {
	name string
	pts  int
} {
	switch fieldName {
	case derived.QCriterion:
		return [3]struct {
			name string
			pts  int
		}{{"high", 3801}, {"medium", 75062}, {"low", 809735}}
	case derived.Magnetic:
		return [3]struct {
			name string
			pts  int
		}{{"high", 1452}, {"medium", 11195}, {"low", 939716}}
	default: // vorticity (Table 1 / Fig. 6/7/8)
		return [3]struct {
			name string
			pts  int
		}{{"high", 4247}, {"medium", 86580}, {"low", 909274}}
	}
}

// Levels picks the three threshold levels for a field at a time-step,
// matching the paper's result-set fractions via top-k queries.
func (e *Env) Levels(c *cluster.Cluster, fieldName string, step int) ([3]Level, error) {
	var out [3]Level
	for i, pl := range paperLevels(fieldName) {
		count := pl.pts * e.Points() / paperTotal
		if count < 1 {
			count = 1
		}
		top, _, err := RunTopK(c, query.TopK{
			Dataset: e.Dataset(), Field: fieldName, Timestep: step, K: count,
		})
		if err != nil {
			return out, fmt.Errorf("levels for %s: %w", fieldName, err)
		}
		// Result values are float32; the k-th value may round above the true
		// float64 norm, which would exclude the boundary point. Nudge the
		// threshold down one ulp-ish so the top-k set is fully included.
		thr := float64(top[len(top)-1].Value) * (1 - 1e-6)
		pts, _, err := RunThreshold(c, query.Threshold{
			Dataset: e.Dataset(), Field: fieldName, Timestep: step, Threshold: thr,
		})
		if err != nil {
			return out, err
		}
		out[i] = Level{Name: pl.name, PaperPoints: pl.pts, Threshold: thr, Points: len(pts)}
	}
	return out, nil
}
