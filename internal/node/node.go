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
	"fmt"
	"slices"
	"sync"

	"github.com/turbdb/turbdb/internal/cache"
	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/membership"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/sim"
	"github.com/turbdb/turbdb/internal/store"
)

// PeerFetcher retrieves atom blobs owned by other nodes of the cluster (the
// halo band of a kernel computation). Implementations charge any transfer
// costs themselves and honor ctx cancellation for remote transports.
//
// A fetcher may answer an atom with its whole blob or with exactly the part
// of it a scan reads, when ctx names one (HaloParts): the blob's length
// says which.
type PeerFetcher interface {
	FetchAtoms(ctx context.Context, p *sim.Proc, rawField string, step int, codes []morton.Code) (map[morton.Code][]byte, error)
}

// HaloDropper is a PeerFetcher that keeps halo atoms across fetches. It
// forgets the atoms of rawField at step when the node drops a key that
// reads them (DropCacheEntry), so the key's next query fetches its halo
// again, as a first touch does.
type HaloDropper interface {
	DropHalo(rawField string, step int)
}

type haloPartsKey struct{}

// haloParts is what WithHaloParts puts on a context.
type haloParts struct {
	atomSide, ncomp int
	boxes           map[morton.Code]grid.Box
}

// WithHaloParts returns ctx carrying, per atom code, the atom-local box a
// worker's slabs read of that atom — the halo band, where the atom is not
// the worker's own — on a grid of the given atom side, for a raw field of
// ncomp components. A PeerFetcher that ships parts reads it with
// HaloParts; one that ships whole atoms ignores it.
func WithHaloParts(ctx context.Context, atomSide, ncomp int, boxes map[morton.Code]grid.Box) context.Context {
	return context.WithValue(ctx, haloPartsKey{}, haloParts{atomSide, ncomp, boxes})
}

// HaloParts returns what WithHaloParts put on ctx; boxes is nil when
// nothing was.
func HaloParts(ctx context.Context) (atomSide, ncomp int, boxes map[morton.Code]grid.Box) {
	hp, _ := ctx.Value(haloPartsKey{}).(haloParts)
	return hp.atomSide, hp.ncomp, hp.boxes
}

// HaloRouter is the PeerFetcher of a node in a cluster, in process and over
// HTTP alike. It routes each atom to the nodes holding it other than Self,
// in failover order (faulttol.HealthOrder of the holders' breakers, then
// primary first and ring order), and asks each holder once for all its
// atoms. A transient failure of one holder moves its atoms on to their next
// holder (faulttol.Failover runs the rounds); the fetch fails on a
// permanent error, or when an atom has no holder left.
type HaloRouter struct {
	// Table returns the routing table. A non-nil error says the table may
	// lack holdings that could not be read: an atom with no holder then
	// fails with that error's class instead of permanently.
	Table func(ctx context.Context) (membership.Placement, error)
	// State reports a holder's breaker state, which orders each atom's
	// holders; nil keeps the table's order.
	State func(id int) faulttol.State
	// Self is the fetching node; it is never asked.
	Self int
	// Fetch asks one holder for codes.
	Fetch func(ctx context.Context, p *sim.Proc, holder int, rawField string, step int, codes []morton.Code) (map[morton.Code][]byte, error)
	// Kernel is the simulation kernel, nil in real mode. In simulation the
	// holders of a round are asked concurrently, one child process each,
	// as the production system submits its boundary requests
	// asynchronously; in real mode they are asked one after another.
	Kernel *sim.Kernel
}

// FetchAtoms implements PeerFetcher.
func (r *HaloRouter) FetchAtoms(ctx context.Context, p *sim.Proc, rawField string, step int, codes []morton.Code) (map[morton.Code][]byte, error) {
	pl, tableErr := r.Table(ctx)
	holders := make([][]int, len(codes))
	for i, code := range codes {
		holders[i] = slices.DeleteFunc(faulttol.HealthOrder(pl.OwnersOf(code), r.State), func(h int) bool { return h == r.Self })
		if len(holders[i]) > 0 {
			continue
		}
		if tableErr != nil {
			return nil, fmt.Errorf("node %d: halo atom %v unavailable on every replica peer: %w", r.Self, code, tableErr)
		}
		return nil, faulttol.Permanentf("node %d: halo atom %v owned by no peer", r.Self, code)
	}
	out := make(map[morton.Code][]byte, len(codes))
	spent, _, err := faulttol.Failover(holders, func(groups []faulttol.Group) []error {
		blobs := make([]map[morton.Code][]byte, len(groups))
		errs := make([]error, len(groups))
		serve := func(i int, gp *sim.Proc) {
			blobs[i], errs[i] = r.fetchGroup(ctx, gp, groups[i], rawField, step, codes)
		}
		if r.Kernel != nil && p != nil {
			(&Exec{Kernel: r.Kernel}).Fork(p, len(groups), serve)
		} else {
			for i := range groups {
				serve(i, p)
			}
		}
		for i, g := range groups {
			if errs[i] == nil {
				for _, k := range g.Keys {
					out[codes[k]] = blobs[i][codes[k]]
				}
			}
		}
		return errs
	})
	if err != nil {
		return nil, err
	}
	if len(spent) > 0 {
		return nil, fmt.Errorf("node %d: halo atom %v unavailable on every replica peer: %w", r.Self, codes[spent[0].Key], spent[0].Err)
	}
	return out, nil
}

// fetchGroup asks g's holder for g's atoms. A holder that leaves out an
// atom fails the group permanently; a permanent error names the holder.
func (r *HaloRouter) fetchGroup(ctx context.Context, p *sim.Proc, g faulttol.Group, rawField string, step int, codes []morton.Code) (map[morton.Code][]byte, error) {
	want := make([]morton.Code, len(g.Keys))
	for i, k := range g.Keys {
		want[i] = codes[k]
	}
	blobs, err := r.Fetch(ctx, p, g.Holder, rawField, step, want)
	if err != nil {
		if !faulttol.Transient(err) {
			err = fmt.Errorf("node %d: peer %d: %w", r.Self, g.Holder, err)
		}
		return nil, err
	}
	for _, c := range want {
		if _, ok := blobs[c]; !ok {
			return nil, faulttol.Permanentf("node %d: peer %d omitted atom %v", r.Self, g.Holder, c)
		}
	}
	return blobs, nil
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
	// Processes is the number of worker processes used per query (the
	// paper's scale-up knob, 1–8). Defaults to 1.
	Processes int
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
	id        int
	dataset   string
	store     *store.Store
	cache     *cache.Cache
	registry  *derived.Registry
	peers     PeerFetcher
	processes int // guarded by mu
	exec      *Exec
	costs     CostModel
	slabPool  sync.Pool // of *field.Slab: the workers' slab buffers
	synopsis  *synopsis // nil with Config.NoSynopsis

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
		id:        cfg.ID,
		dataset:   cfg.Dataset,
		store:     cfg.Store,
		cache:     cfg.Cache,
		registry:  cfg.Registry,
		processes: cfg.Processes,
		exec:      cfg.Exec,
		costs:     cfg.Costs,
		synopsis:  syn,
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
// and fails loudly rather than answering from missing data. Atoms are
// filtered before they are sorted: a node keeps a fraction of a large box.
func (n *Node) scanAtomsCovering(b grid.Box, scan []morton.Range) ([]morton.Code, error) {
	keep := n.store.Owned().Contains
	var stray error
	if len(scan) > 0 {
		keep = func(c morton.Code) bool {
			for _, r := range scan {
				if r.Contains(c) {
					if stray == nil && !n.store.Owns(c) {
						stray = faulttol.Permanentf("node %d: routed atom %v outside held ranges", n.id, c)
					}
					return true
				}
			}
			return false
		}
	}
	out, err := n.store.Grid().AtomsCoveringWhere(b, keep)
	if err == nil {
		err = stray
	}
	if err != nil {
		return nil, err
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

// SetPeers installs the halo-exchange fetcher, once all nodes exist and
// before the node serves. A node with none is valid for a single-node
// cluster: the halo wraps onto the node itself, detected via Store ownership.
func (n *Node) SetPeers(p PeerFetcher) { n.peers = p }
