package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/turbdb/turbdb/internal/cache"
	"github.com/turbdb/turbdb/internal/obs"
)

// The node's block-pool counters, read (never written) through the
// process-wide registry the node package registers them in.
var (
	nodePoolGets = obs.Default().Counter("turbdb_node_pool_get_total") //turbdb:ignore metrichygiene looks up the node package's counter to read it; registers nothing new
	nodePoolNews = obs.Default().Counter("turbdb_node_pool_new_total") //turbdb:ignore metrichygiene looks up the node package's counter to read it; registers nothing new
)

// replayed is one fixed-prefix replay of the traced run, on a system of its
// own, with the cache's and the block pool's view of it.
type replayed struct {
	ph         phase
	cache      cache.Stats // deltas over the replay
	residentKB float64
	poolGets   int64
	poolNews   int64
}

// replayPrefix assembles a fresh system (traced when tr is set, without
// the scheduler when withSched is false), warms it up like any run, and
// replays the first tracePrefix ops after the warm-up.
func (d *deployment) replayPrefix(ctx context.Context, orc *oracle, seed int64, tr *tracer, withSched bool) (*replayed, *runner, error) {
	sys, err := d.system(tr, withSched)
	if err != nil {
		return nil, nil, err
	}
	r := &runner{w: d.w, sys: sys, oracle: orc, dataset: d.src.Name()}
	next := d.w.newGen(seed)
	if err := r.prepare(ctx, next); err != nil { // untraced: r.tr is still nil
		sys.close()
		return nil, nil, err
	}
	r.tr = tr
	g0, n0 := nodePoolGets.Value(), nodePoolNews.Value()
	c0 := cacheTotals(sys)
	runtime.GC()
	out := &replayed{ph: r.replay(ctx, next, d.w.tracePrefix, time.Time{})}
	c1 := cacheTotals(sys)
	out.cache = cache.Stats{
		Hits: c1.Hits - c0.Hits, Misses: c1.Misses - c0.Misses,
		Stores: c1.Stores - c0.Stores, Evictions: c1.Evictions - c0.Evictions,
	}
	for _, n := range sys.nodes {
		if c := n.Cache(); c != nil {
			out.residentKB += float64(c.SizeBytes()) / 1024
		}
	}
	out.poolGets, out.poolNews = nodePoolGets.Value()-g0, nodePoolNews.Value()-n0
	r.tr = nil
	return out, r, nil
}

// runTraced is the traced run: the same fixed prefix of the seed's op list
// is replayed untraced (the reference), against the bare mediator (where
// the workload has a scheduler), and traced; then the direct-call lanes run
// on this deployment's data. It fills doc with every per-layer metric.
func runTraced(ctx context.Context, d *deployment, orc *oracle, opts runOptions, doc *document) error {
	w := d.w
	ref, r, err := d.replayPrefix(ctx, orc, opts.seed, nil, true)
	if err != nil {
		return err
	}
	r.sys.close()
	bare := ref
	if w.sys.sched {
		if bare, r, err = d.replayPrefix(ctx, orc, opts.seed, nil, false); err != nil {
			return err
		}
		r.sys.close()
	}
	tr := newTracer()
	traced, r, err := d.replayPrefix(ctx, orc, opts.seed, tr, true)
	if err != nil {
		return err
	}
	defer r.sys.close()

	failed, detail := r.probeUnalignedBox(ctx)
	if detail != "" {
		doc.Notes["node.unaligned_box_failed"] = detail
	}

	// The lanes' result set: the lanePoints largest norms of the first
	// class, as a threshold query would return them.
	laneClass, err := buildOracleClass(d.src, w.keys[0], []float64{float64(lanePoints) / float64(w.n*w.n*w.n)})
	if err != nil {
		return err
	}
	stores := d.stores
	if stores == nil {
		for _, n := range d.cluster.Nodes() {
			stores = append(stores, n.Store())
		}
	}
	lanes, err := runLanes(stores, d.src.Name(), laneClass.expectThreshold(laneClass.thresholds[0], laneClass.domain))
	if err != nil {
		return err
	}
	lanes["points_per_atom"] = float64(d.src.Grid().PointsPerAtom())

	spans := tr.spans
	if err := checkSpanForest(spans); err != nil {
		return err
	}
	if err := tr.write(opts.traceOut); err != nil {
		return err
	}
	doc.SpanFile = opts.traceOut

	vals := deriveSpanMetrics(spans, lanes)
	for k, v := range lanes {
		vals[k] = v
	}
	ops := float64(len(ref.ph.latencies))
	refP50 := percentile(latenciesMS(ref.ph.latencies), 0.5)
	vals["store.ingest_s"] = d.ingestS
	vals["synth.generate_s"] = d.generateS
	vals["node.pool_new_per_get"] = ratio(float64(traced.poolNews), float64(traced.poolGets))
	vals["node.unaligned_box_failed"] = float64(failed)
	if lookups := traced.cache.Hits + traced.cache.Misses; lookups > 0 {
		vals["cache.hit_ratio"] = float64(traced.cache.Hits) / float64(lookups)
	}
	vals["cache.stores"] = float64(traced.cache.Stores)
	vals["cache.evictions"] = float64(traced.cache.Evictions)
	vals["cache.resident_kb"] = traced.residentKB
	vals["sched.shed_ratio"] = ratio(float64(traced.ph.shed), float64(traced.ph.attempted))
	vals["sched.bare_p50_ms"] = percentile(latenciesMS(bare.ph.latencies), 0.5)
	vals["proc.alloc_mb_per_query"] = ratio(float64(ref.ph.mem.allocBytes)/(1<<20), ops)
	vals["proc.allocs_per_query"] = ratio(float64(ref.ph.mem.allocs), ops)
	vals["proc.gc_cycles"] = float64(ref.ph.mem.gcCycles)
	vals["proc.gc_pause_ms_total"] = float64(ref.ph.mem.gcPause) / float64(time.Millisecond)
	vals["bench.trace_overhead_ratio"] = ratio(percentile(latenciesMS(traced.ph.latencies), 0.5), refP50) - 1
	vals["bench.oracle_s"] = doc.Info["bench.oracle_s"]
	vals["bench.check_s"] = traced.ph.check.Seconds()
	vals["bench.samples"] = float64(len(traced.ph.latencies))

	for _, def := range perLayer {
		doc.Metrics[def.Name] = metricValue{vals[def.Name], def.Unit}
	}
	doc.Info["reference_p50_ms"] = refP50
	doc.Info["traced_p50_ms"] = percentile(latenciesMS(traced.ph.latencies), 0.5)
	doc.Info["spans"] = float64(len(spans))

	for _, rp := range []*replayed{ref, bare, traced} {
		doc.Attempted += rp.ph.attempted
		doc.Failed += rp.ph.failed
		if rp.ph.firstErr != nil && doc.FirstError == "" {
			doc.FirstError = rp.ph.firstErr.Error()
		}
	}
	if bare == ref { // no scheduler: the reference was counted twice
		doc.Attempted -= ref.ph.attempted
		doc.Failed -= ref.ph.failed
	}
	doc.Correct = doc.Failed == 0 && doc.Attempted > 0
	if doc.Attempted > 0 {
		doc.FailedRatio = float64(doc.Failed) / float64(doc.Attempted)
	}
	if w.allHits && traced.cache.Misses != 0 {
		doc.Correct = false
		doc.FirstError = fmt.Sprintf("bench: %d cache misses on the all-hit workload", traced.cache.Misses)
	}
	return nil
}
