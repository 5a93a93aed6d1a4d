package node

import "github.com/turbdb/turbdb/internal/obs"

// Process-wide node metrics. Stage histograms record the per-query phase
// durations in seconds of the node's time base — wall-clock in real mode,
// virtual time in the cluster simulation — i.e. exactly the per-node inputs
// to the paper's Fig. 8/9 breakdowns, live instead of post-hoc. Pool
// counters expose the churn of the workers' slab-block pool: new/get is the
// pool miss rate, get−put is the leak indicator. Halo bytes are what peers
// shipped: whole atoms in process, bands over HTTP. The synopsis gauge sums
// the max-norm tables of every node in the process.
var (
	mScanIO        = obs.Default().Histogram("turbdb_node_scan_io_seconds", obs.DurationBuckets)
	mScanCompute   = obs.Default().Histogram("turbdb_node_scan_compute_seconds", obs.DurationBuckets)
	mCacheLookup   = obs.Default().Histogram("turbdb_node_cache_lookup_seconds", obs.DurationBuckets)
	mCacheUpdate   = obs.Default().Histogram("turbdb_node_cache_update_seconds", obs.DurationBuckets)
	mPointsExam    = obs.Default().Counter("turbdb_node_points_examined_total")
	mAtomsSkipped  = obs.Default().Counter("turbdb_node_atoms_skipped_total")
	mAtomsPruned   = obs.Default().Counter("turbdb_node_atoms_pruned_total")
	mHaloBytes     = obs.Default().Counter("turbdb_node_halo_bytes_total")
	mSynopsisBytes = obs.Default().Gauge("turbdb_node_synopsis_bytes")
	mPoolGets      = obs.Default().Counter("turbdb_node_pool_get_total")
	mPoolNews      = obs.Default().Counter("turbdb_node_pool_new_total")
	mPoolPuts      = obs.Default().Counter("turbdb_node_pool_put_total")
)
