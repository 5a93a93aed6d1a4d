// Package node implements a database node of the analysis cluster: the
// GetThreshold stored procedure of the paper's Algorithm 1, the data-
// parallel evaluation of derived fields from locally stored atoms with halo
// exchange from adjacent nodes, PDF (histogram) and top-k evaluation, and
// the node's interaction with its local application-aware cache.
//
// A node owns a contiguous range of Morton atom codes for one dataset. Each
// query is evaluated by P worker processes over disjoint contiguous
// sub-ranges of the node's atoms; workers first read every atom they need
// (their own plus a halo band one kernel half-width wide, fetching
// non-local halo atoms from peer nodes), then compute the requested derived
// field at every grid point and filter against the threshold. Both phases
// charge time to the node's simulated resources when running inside the
// cluster simulation; in real mode workers are plain goroutines.
package node

import (
	"context"
	"sync"

	"github.com/turbdb/turbdb/internal/cache"
	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/sim"
	"github.com/turbdb/turbdb/internal/store"
)

// PeerFetcher retrieves atom blobs owned by other nodes of the cluster (the
// halo band of a kernel computation). Implementations charge any transfer
// costs themselves and honor ctx cancellation for remote transports.
type PeerFetcher interface {
	FetchAtoms(ctx context.Context, p *sim.Proc, rawField string, step int, codes []morton.Code) (map[morton.Code][]byte, error)
}

// Description is what a mediator needs to know about a node at assembly
// time: the dataset it serves, the grid geometry, and the Morton range it
// owns. Remote implementations fetch it over the wire, so retrieval can
// fail and honors ctx.
type Description struct {
	Dataset string
	Grid    grid.Grid
	Owned   morton.Range
	// Held lists every range the node's store holds (primary first, then
	// replica ranges) — what replica-aware peer routing keys on. Empty is
	// equivalent to [Owned].
	Held []morton.Range
}

// Config assembles a Node.
type Config struct {
	// ID is the node's index within the cluster (diagnostics only).
	ID int
	// Dataset is the dataset this node serves (e.g. "mhd").
	Dataset string
	// Store holds the node's shard of the raw data.
	Store *store.Store
	// Cache is the node-local query-result cache; nil disables caching
	// (used by the paper's "no cache" baseline runs).
	Cache *cache.Cache
	// Registry resolves field names; nil uses the standard catalog.
	Registry *derived.Registry
	// Peers fetches halo atoms from other nodes; nil is valid for a
	// single-node cluster (the halo wraps onto the node itself, which is
	// detected via Store ownership).
	Peers PeerFetcher
	// Processes is the number of worker processes used per query (the
	// paper's scale-up knob, 1–8). Defaults to 1.
	Processes int
	// AllowPartialHalo degrades gracefully when peer nodes are
	// unreachable: atoms whose halo band cannot be fetched are skipped
	// (counted in Breakdown.AtomsSkipped) instead of failing the whole
	// shard evaluation. Partial results are never cached.
	AllowPartialHalo bool
	// NoSynopsis turns off the max-norm synopsis, with which threshold
	// scans leave out atoms already known to hold no qualifying point: every
	// miss then reads and evaluates its whole box, as the paper's system
	// does (the reproduction experiments set it).
	NoSynopsis bool
	// Exec supplies the execution environment (simulated or real).
	Exec *Exec
	// Costs models per-point compute durations for simulation charging;
	// zero-valued means uncharged (fine in real mode).
	Costs CostModel
}

// Node is one database node. Safe for concurrent queries in real mode; in
// simulation mode the DES kernel provides the concurrency.
type Node struct {
	id          int
	dataset     string
	store       *store.Store
	cache       *cache.Cache
	registry    *derived.Registry
	peers       PeerFetcher
	processes   int // guarded by mu
	exec        *Exec
	costs       CostModel
	partialHalo bool
	slabPool    sync.Pool // of *field.Block: the workers' slab buffers
	synopsis    *synopsis // nil with Config.NoSynopsis

	//turbdb:lockrank node.state 20
	mu sync.Mutex
}

// New validates the config and builds a Node.
func New(cfg Config) (*Node, error) {
	if cfg.Store == nil {
		return nil, faulttol.Permanent("node: store is required")
	}
	if cfg.Dataset == "" {
		return nil, faulttol.Permanent("node: dataset name is required")
	}
	if cfg.Processes == 0 {
		cfg.Processes = 1
	}
	if cfg.Processes < 1 {
		return nil, faulttol.Permanentf("node: processes must be ≥ 1, got %d", cfg.Processes)
	}
	if cfg.Registry == nil {
		cfg.Registry = derived.Standard()
	}
	if cfg.Exec == nil {
		cfg.Exec = RealExec()
	}
	var syn *synopsis
	if !cfg.NoSynopsis {
		syn = newSynopsis(cfg.Store.Grid())
	}
	return &Node{
		id:          cfg.ID,
		dataset:     cfg.Dataset,
		store:       cfg.Store,
		cache:       cfg.Cache,
		registry:    cfg.Registry,
		peers:       cfg.Peers,
		processes:   cfg.Processes,
		exec:        cfg.Exec,
		costs:       cfg.Costs,
		partialHalo: cfg.AllowPartialHalo,
		synopsis:    syn,
	}, nil
}

// ID returns the node's index.
func (n *Node) ID() int { return n.id }

// Dataset returns the dataset name this node serves.
func (n *Node) Dataset() string { return n.dataset }

// Grid returns the dataset geometry.
func (n *Node) Grid() grid.Grid { return n.store.Grid() }

// Owned returns the node's primary atom-code range.
func (n *Node) Owned() morton.Range { return n.store.Owned() }

// Held returns every atom-code range the node's store holds (primary plus
// replica ranges).
func (n *Node) Held() []morton.Range { return n.store.Held() }

// Describe implements the mediator's client view; for an in-process node
// it never fails.
func (n *Node) Describe(_ context.Context) (Description, error) {
	return Description{
		Dataset: n.dataset, Grid: n.store.Grid(),
		Owned: n.store.Owned(), Held: n.store.Held(),
	}, nil
}

// Cache returns the node's cache (nil when caching is disabled).
func (n *Node) Cache() *cache.Cache { return n.cache }

// Store returns the node's raw-data store.
func (n *Node) Store() *store.Store { return n.store }

// SetProcesses changes the per-query worker count (the scale-up knob). The
// in-process update is quick; ctx matters for the mediator.NodeClient
// contract (the wire implementation blocks on the network) and is still
// honored if already canceled.
func (n *Node) SetProcesses(ctx context.Context, p int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if p < 1 {
		return faulttol.Permanentf("node: processes must be ≥ 1, got %d", p)
	}
	n.mu.Lock()
	n.processes = p
	n.mu.Unlock()
	return nil
}

// Processes returns the current worker count.
func (n *Node) Processes() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.processes
}

// scanAtomsCovering returns the atoms of box b this evaluation must scan,
// sorted: the node's primary range by default, or exactly the requested
// scan ranges under the mediator's replica routing. Every scanned atom must
// be held locally — a scan range this node does not hold is a routing bug
// and fails loudly rather than answering from missing data.
func (n *Node) scanAtomsCovering(b grid.Box, scan []morton.Range) ([]morton.Code, error) {
	all, err := n.store.Grid().AtomsCovering(b)
	if err != nil {
		return nil, err
	}
	out := all[:0]
	if len(scan) == 0 {
		owned := n.store.Owned()
		for _, c := range all {
			if owned.Contains(c) {
				out = append(out, c)
			}
		}
		return out, nil
	}
	for _, c := range all {
		for _, r := range scan {
			if r.Contains(c) {
				if !n.store.Owns(c) {
					return nil, faulttol.Permanentf("node %d: routed atom %v outside held ranges", n.id, c)
				}
				out = append(out, c)
				break
			}
		}
	}
	return out, nil
}

// splitWork divides a sorted code list into nParts contiguous shards (the
// per-process partitioning along the Morton curve). Shards may be empty
// when there are fewer atoms than processes.
func splitWork(codes []morton.Code, nParts int) [][]morton.Code {
	shards := make([][]morton.Code, nParts)
	base := len(codes) / nParts
	extra := len(codes) % nParts
	off := 0
	for i := 0; i < nParts; i++ {
		n := base
		if i < extra {
			n++
		}
		shards[i] = codes[off : off+n]
		off += n
	}
	return shards
}

// FetchAtoms serves peer halo requests from this node's store. No disk time
// is charged: halo atoms requested by a peer are atoms this node is itself
// scanning for the same query, so the database buffer pool serves them from
// memory (the paper credits exactly this effect — "SQL Server also benefits
// from a larger buffer pool, which reduces the I/O time"). The requesting
// peer charges the inter-node network transfer instead.
func (n *Node) FetchAtoms(ctx context.Context, _ *sim.Proc, rawField string, step int, codes []morton.Code) (map[morton.Code][]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return n.store.ReadAtoms(nil, rawField, step, codes)
}

// SetPeers installs the halo-exchange fetcher (done by cluster assembly
// after all nodes exist).
func (n *Node) SetPeers(p PeerFetcher) { n.peers = p }
