package turbdb

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/turbdb/turbdb/internal/cluster"
	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/fieldexpr"
	"github.com/turbdb/turbdb/internal/hist"
	"github.com/turbdb/turbdb/internal/mediator"
	"github.com/turbdb/turbdb/internal/obs"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sim"
	"github.com/turbdb/turbdb/internal/synth"
)

// Config configures Open.
type Config struct {
	// Kind selects the dataset flavor (Isotropic or MHD).
	Kind Kind
	// GridN is the grid side; a power of two ≥ AtomSide (default 32).
	GridN int
	// AtomSide is the database atom side (default 8, as in production).
	AtomSide int
	// Steps is the number of time-steps synthesized (default 1).
	Steps int
	// Seed makes the synthetic dataset deterministic.
	Seed int64
	// Nodes is the cluster size (default 4, as for the paper's MHD data).
	Nodes int
	// Processes is the per-node worker count for each query (default 1).
	Processes int
	// Cache enables the per-node application-aware semantic cache, which
	// keeps threshold results and PDF histograms.
	Cache bool
	// CacheCapacity bounds each node's cached threshold results in modeled
	// SSD bytes (0 = unlimited); PDF histograms have a constant budget of
	// their own.
	CacheCapacity int64
	// Simulate runs the cluster on a discrete-event simulation with modeled
	// disks, CPU cores and network links; Stats then report virtual cluster
	// time. Results are identical either way.
	Simulate bool
	// AllowPartial degrades gracefully when cluster nodes become
	// unreachable (real mode only): queries are answered from the
	// surviving nodes and Stats.Coverage reports the fraction of the
	// domain scanned. The default keeps strict all-or-nothing semantics.
	AllowPartial bool
}

// DB is an open analysis database: a synthetic dataset sharded across an
// in-process cluster, queried through its mediator. Safe for concurrent use
// in real mode; in simulation mode queries are serialized through the
// simulation.
type DB struct {
	cfg      Config
	c        *cluster.Cluster
	registry *derived.Registry
	custom   []string // names registered via RegisterField, in order; guarded by mu

	mu sync.Mutex // serializes simulated queries; held across whole queries, so it is taken before every internal lock
}

// Open synthesizes a dataset and assembles a cluster over it.
func Open(cfg Config) (*DB, error) {
	if cfg.GridN == 0 {
		cfg.GridN = 32
	}
	gen, err := synth.New(synth.Params{
		N: cfg.GridN, AtomSide: cfg.AtomSide, Seed: cfg.Seed,
		Kind: cfg.Kind.synth(), Steps: cfg.Steps,
	})
	if err != nil {
		return nil, fmt.Errorf("turbdb: %w", err)
	}
	registry := derived.NewRegistry()
	c, err := cluster.Build(gen, cluster.Config{
		Nodes: cfg.Nodes, Processes: cfg.Processes,
		WithCache: cfg.Cache, CacheCapacity: cfg.CacheCapacity,
		Simulate: cfg.Simulate, Registry: registry,
		AllowPartial: cfg.AllowPartial,
	})
	if err != nil {
		return nil, fmt.Errorf("turbdb: %w", err)
	}
	return &DB{cfg: cfg, c: c, registry: registry}, nil
}

// Dataset returns the dataset name ("isotropic" or "mhd").
func (db *DB) Dataset() string { return db.c.Mediator.Dataset() }

// GridN returns the grid side.
func (db *DB) GridN() int { return db.c.Mediator.Grid().N }

// Steps returns the number of stored time-steps.
func (db *DB) Steps() int { return db.c.Generator().Steps() }

// Nodes returns the cluster size.
func (db *DB) Nodes() int { return len(db.c.Nodes()) }

// Fields lists the queryable field names, including any registered with
// RegisterField.
func (db *DB) Fields() []string {
	var out []string
	for _, name := range []string{
		FieldVelocity, FieldPressure, FieldMagnetic,
		FieldVorticity, FieldCurrent, FieldQCriterion, FieldRInvariant, FieldGradNorm,
	} {
		if db.cfg.Kind != MHD && (name == FieldMagnetic || name == FieldCurrent) {
			continue
		}
		out = append(out, name)
	}
	db.mu.Lock()
	out = append(out, db.custom...)
	db.mu.Unlock()
	return out
}

// RegisterField compiles a derived-field expression and makes it queryable
// on this database — the declarative building-block interface the paper's
// conclusion proposes. The expression composes one stored field with
// differential and algebraic operators, e.g.:
//
//	db.RegisterField("lamb", "norm(cross(velocity, curl(velocity)))")
//	db.RegisterField("laplacianp", "div(grad(pressure))")
//	db.RegisterField("enstrophy", "dot(curl(velocity), curl(velocity))")
//
// Operators: curl, grad, div, norm, abs, dot, cross, comp, trace, det, sym,
// antisym, qcrit, rinv, and infix + - * / with numeric literals. Nested
// differential operators widen the halo band fetched from adjacent nodes
// automatically. Results are cached like any built-in field.
func (db *DB) RegisterField(name, expr string) error {
	raws := map[string]int{FieldVelocity: 3, FieldPressure: 1}
	if db.cfg.Kind == MHD {
		raws[FieldMagnetic] = 3
	}
	f, err := fieldexpr.Compile(name, expr, raws)
	if err != nil {
		return err
	}
	if err := db.registry.Register(f); err != nil {
		return err
	}
	db.mu.Lock()
	db.custom = append(db.custom, name)
	db.mu.Unlock()
	return nil
}

// run executes fn as the query driver: inline in real mode, as a simulated
// user process in simulation mode.
func (db *DB) run(fn func(p *sim.Proc) error) error {
	if db.c.Kernel == nil {
		return fn(nil)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	_, err := db.c.RunQuery(fn)
	return err
}

// statsFrom converts mediator stats.
func (db *DB) statsFrom(s *mediator.QueryStats) Stats {
	return Stats{
		Coverage:         s.Coverage,
		NodesFailed:      len(s.Failures),
		Total:            s.Total,
		CacheLookup:      s.NodeCritical.CacheLookup,
		IO:               s.NodeCritical.IO,
		Compute:          s.NodeCritical.Compute,
		CacheUpdate:      s.NodeCritical.CacheUpdate,
		MediatorDBComm:   s.MediatorDBComm,
		MediatorUserComm: s.MediatorUserComm,
		Points:           s.Points,
		CacheHits:        s.CacheHits,
		Nodes:            db.Nodes(),
		AtomsRead:        s.NodeCritical.AtomsRead,
		HaloAtoms:        s.NodeCritical.HaloAtoms,
	}
}

// Threshold evaluates a threshold query. Points come back ordered along the
// Morton curve. A query whose result would exceed the limit fails with an
// error matching ErrThresholdTooLow.
func (db *DB) Threshold(q ThresholdQuery) ([]Point, Stats, error) {
	iq := query.Threshold{
		Dataset: db.Dataset(), Field: q.Field, Timestep: q.Timestep,
		Threshold: q.Threshold, Box: q.Region.internal(),
		FDOrder: q.FDOrder, Limit: q.Limit, Tenant: q.Tenant,
	}
	var tr *obs.Trace
	if q.Trace {
		var now func() time.Duration
		if db.c.Kernel != nil {
			now = db.c.Kernel.Now // span times in virtual cluster time
		}
		tr = obs.NewTrace(obs.NewTraceID(), now)
	}
	var pts []Point
	var stats Stats
	err := db.run(func(p *sim.Proc) error {
		raw, s, err := db.c.Mediator.Threshold(obs.ContextWithTrace(context.Background(), tr), p, iq)
		if err != nil {
			return err
		}
		pts = fromResult(raw)
		stats = db.statsFrom(s)
		return nil
	})
	if err != nil {
		return nil, Stats{}, err
	}
	if tr != nil {
		obs.Traces().Record(tr)
		stats.TraceTree = tr.Tree()
	}
	return pts, stats, nil
}

// PDF evaluates a histogram query, returning per-bin counts.
func (db *DB) PDF(q PDFQuery) ([]int64, Stats, error) {
	iq := query.PDF{
		Dataset: db.Dataset(), Field: q.Field, Timestep: q.Timestep,
		Box: q.Region.internal(), Bins: q.Bins, Min: q.Min, Width: q.Width,
		FDOrder: q.FDOrder, Tenant: q.Tenant,
	}
	var counts []int64
	var stats Stats
	err := db.run(func(p *sim.Proc) error {
		c, s, err := db.c.Mediator.PDF(context.Background(), p, iq)
		if err != nil {
			return err
		}
		counts = c
		stats = db.statsFrom(s)
		return nil
	})
	if err != nil {
		return nil, Stats{}, err
	}
	return counts, stats, nil
}

// TopK returns the K locations with the largest field norms, descending.
func (db *DB) TopK(q TopKQuery) ([]Point, Stats, error) {
	iq := query.TopK{
		Dataset: db.Dataset(), Field: q.Field, Timestep: q.Timestep,
		Box: q.Region.internal(), K: q.K, FDOrder: q.FDOrder,
		Tenant: q.Tenant,
	}
	var pts []Point
	var stats Stats
	err := db.run(func(p *sim.Proc) error {
		raw, s, err := db.c.Mediator.TopK(context.Background(), p, iq)
		if err != nil {
			return err
		}
		pts = fromResult(raw)
		stats = db.statsFrom(s)
		return nil
	})
	if err != nil {
		return nil, Stats{}, err
	}
	return pts, stats, nil
}

// NormRMS estimates the root-mean-square of the field's norm at a time-step
// from a fine histogram (the paper quotes thresholds as multiples of the
// RMS, e.g. "values above 8 times the root mean square value").
func (db *DB) NormRMS(field string, step int) (float64, error) {
	h, err := db.fineHistogram(field, step)
	if err != nil {
		return 0, err
	}
	// second moment from bin centers
	var sum2 float64
	var total float64
	for i, c := range h.Counts {
		center := h.Min + (float64(i)+0.5)*h.Width
		sum2 += float64(c) * center * center
		total += float64(c)
	}
	if total == 0 {
		return 0, nil
	}
	return math.Sqrt(sum2 / total), nil
}

// NormQuantile estimates the threshold value below which a fraction q of
// the field's norms lie — the tool for picking thresholds that return a
// target number of points.
func (db *DB) NormQuantile(field string, step int, q float64) (float64, error) {
	h, err := db.fineHistogram(field, step)
	if err != nil {
		return 0, err
	}
	return h.Quantile(q), nil
}

// fineHistogram builds a 4096-bin histogram of the field's norm, scaled to
// its maximum (found with a top-1 query).
func (db *DB) fineHistogram(field string, step int) (*hist.Histogram, error) {
	top, _, err := db.TopK(TopKQuery{Field: field, Timestep: step, K: 1})
	if err != nil {
		return nil, err
	}
	if len(top) == 0 || top[0].Value <= 0 {
		h, _ := hist.New(0, 1, 1) //lint:allow droppederr constant arguments satisfy hist.New's validation
		return h, nil
	}
	maxV := top[0].Value
	bins := 4096
	width := maxV / float64(bins-1)
	counts, _, err := db.PDF(PDFQuery{Field: field, Timestep: step, Bins: bins, Width: width})
	if err != nil {
		return nil, err
	}
	return hist.FromCounts(0, width, counts)
}

// DropCache removes cached results for (field, step) on every node, forcing
// the next query to re-evaluate from the raw data. order 0 means the
// default finite-difference order.
func (db *DB) DropCache(field string, order, step int) error {
	return db.c.Mediator.DropCache(context.Background(), field, order, step)
}

// SetProcesses changes the per-query worker count on every node.
func (db *DB) SetProcesses(n int) error {
	return db.c.Mediator.SetProcesses(context.Background(), n)
}

// CacheStats aggregates hit/miss/store/eviction counters across the nodes'
// caches (zeros when the cache is disabled).
func (db *DB) CacheStats() (hits, misses, stores, evictions int64) {
	for _, n := range db.c.Nodes() {
		if c := n.Cache(); c != nil {
			s := c.Stats()
			hits += s.Hits
			misses += s.Misses
			stores += s.Stores
			evictions += s.Evictions
		}
	}
	return
}
