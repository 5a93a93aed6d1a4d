// Package cluster assembles complete analysis clusters: N database nodes
// with their stores, caches, disk and network models, halo-exchange peer
// fetchers and a mediator — in either of two modes:
//
//   - simulation mode, the configuration used to regenerate the paper's
//     experiments: all nodes share one discrete-event kernel, disks, CPUs
//     and links are modeled resources, and query timings are virtual;
//   - real mode, used by the HTTP services, the examples and the unit
//     tests: plain goroutines and wall-clock time.
//
// The data are partitioned across nodes along contiguous ranges of the
// Morton z-order curve, as in the JHTDB (paper Sec. 2).
package cluster

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/turbdb/turbdb/internal/cache"
	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/diskmodel"
	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/field"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/mediator"
	"github.com/turbdb/turbdb/internal/membership"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/netmodel"
	"github.com/turbdb/turbdb/internal/node"
	"github.com/turbdb/turbdb/internal/sim"
	"github.com/turbdb/turbdb/internal/store"
	"github.com/turbdb/turbdb/internal/synth"
)

// Source supplies a dataset to ingest: geometry, schema and whole-domain
// blocks per (field, time-step). *synth.Generator implements it; wrappers
// can memoize generated blocks when building many clusters from one
// dataset.
type Source interface {
	Grid() grid.Grid
	RawFields() []synth.RawField
	Steps() int
	Name() string
	Field(name string, step int) (*field.Block, error)
}

// Config configures cluster assembly.
type Config struct {
	// Nodes is the number of database nodes (the paper's MHD dataset is
	// partitioned across 4; scale-out experiments use 1–8). Defaults to 4.
	Nodes int
	// Processes is the initial per-query worker count per node. Defaults
	// to 1.
	Processes int
	// WithCache enables the per-node semantic cache.
	WithCache bool
	// CacheCapacity bounds each node's cache in modeled SSD bytes; 0 =
	// unlimited.
	CacheCapacity int64
	// CachePDF enables the aggregate-cache extension with an LRU budget of
	// that many PDF entries per node; 0 disables it.
	CachePDF int
	// Simulate builds the cluster on a DES kernel with modeled resources.
	Simulate bool
	// Cores is the simulated CPU core count per node (paper nodes are dual
	// quad-core → 8). Defaults to 8. Ignored in real mode.
	Cores int
	// HDD, SSD, NodeLink, UserLink override the default device/link models;
	// zero values use the defaults. Ignored in real mode.
	HDD      diskmodel.Spec
	SSD      diskmodel.Spec
	NodeLink netmodel.Spec
	UserLink netmodel.Spec
	// Costs is the per-point compute cost model for simulation charging; a
	// zero model with Simulate=true triggers calibration on this host.
	Costs node.CostModel
	// Registry resolves field names; nil uses the standard catalog.
	Registry *derived.Registry
	// AllowPartial enables graceful degradation end to end: the mediator
	// answers from surviving nodes when one stays unreachable (with
	// coverage accounting), and nodes skip atoms whose halo cannot be
	// fetched instead of failing their whole shard. Real mode only.
	AllowPartial bool
	// Replication is k, the number of nodes holding each Morton range.
	// 0 and 1 keep the one-owner-per-shard layout (the mediator's k = 1
	// topology, fixed for the cluster's life); k ≥ 2 enables
	// membership-driven placement, replica failover in the mediator and
	// halo fetchers, and Join/Leave elasticity. Clamped to Nodes.
	Replication int
	// NoSynopsis builds every node without its max-norm synopsis
	// (node.Config.NoSynopsis): a threshold miss scans its whole box, as in
	// the paper's system.
	NoSynopsis bool
}

// Cluster is an assembled analysis cluster over one synthetic dataset.
type Cluster struct {
	Kernel   *sim.Kernel // nil in real mode
	Mediator *mediator.Mediator

	gen       Source
	cfg       Config // defaults resolved; drives buildNode for joiners
	nodes     []*node.Node
	hdds      []*diskmodel.Device
	ssds      []*diskmodel.Device
	peerLinks []*netmodel.Link
	user      *netmodel.Link

	table *membership.Table // nil without replication

	// Replica placement in effect. Swapped atomically on every rebalance;
	// in-flight halo fetches keep routing by the placement they snapshot.
	//
	//turbdb:lockrank cluster.placement 14
	topoMu    sync.Mutex
	placement *membership.Placement // guarded by topoMu; nil without replication
	version   uint64                // guarded by topoMu; topology version counter
}

// placementSnapshot returns the placement in effect (nil without
// replication).
func (c *Cluster) placementSnapshot() *membership.Placement {
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	return c.placement
}

// peerFetcher routes halo-atom requests to the owning nodes, charging the
// owner's disks and the inter-node link for the transfer.
type peerFetcher struct {
	c    *Cluster
	self int
}

// holders returns the peers able to serve an atom, in failover order:
// under replica placement, the code's serving owners (Alive before
// Suspect/Leaving) excluding self; the unreplicated layout has exactly one.
func (f *peerFetcher) holders(code morton.Code) []int {
	pl := f.c.placementSnapshot()
	if pl == nil {
		for i, n := range f.c.nodes {
			if i != f.self && n.Owned().Contains(code) {
				return []int{i}
			}
		}
		return nil
	}
	hs := f.c.table.FailoverOrder(pl.OwnersOf(code), nil)
	if i := slices.Index(hs, f.self); i >= 0 {
		hs = slices.Delete(hs, i, i+1)
	}
	return hs
}

// FetchAtoms implements node.PeerFetcher. Under replication a transient
// failure of one holder re-routes the affected atoms to the next replica
// (faulttol.Failover runs the rounds); the fetch fails when an atom has no
// live holder left.
func (f *peerFetcher) FetchAtoms(ctx context.Context, p *sim.Proc, rawField string, step int, codes []morton.Code) (map[morton.Code][]byte, error) {
	holders := make([][]int, len(codes))
	for i, code := range codes {
		if holders[i] = f.holders(code); len(holders[i]) == 0 {
			return nil, fmt.Errorf("cluster: atom %v owned by no peer of node %d", code, f.self)
		}
	}
	out := make(map[morton.Code][]byte, len(codes))
	spent, _, err := faulttol.Failover(holders, func(groups []faulttol.Group) []error {
		results := make([]map[morton.Code][]byte, len(groups))
		errs := make([]error, len(groups))
		fetchOne := func(i int, fp *sim.Proc) {
			owner := groups[i].Holder
			want := make([]morton.Code, len(groups[i].Keys))
			for j, k := range groups[i].Keys {
				want[j] = codes[k]
			}
			blobs, err := f.c.nodes[owner].FetchAtoms(ctx, fp, rawField, step, want)
			if err != nil {
				errs[i] = err
				return
			}
			total := 0
			for _, b := range blobs {
				total += len(b)
			}
			if f.c.Kernel != nil && fp != nil {
				f.c.peerLink(owner).Transfer(fp, total)
			}
			results[i] = blobs
		}
		// In simulation, requests to different owners are issued
		// asynchronously, as the production system submits its boundary
		// requests.
		if f.c.Kernel != nil && p != nil {
			(&node.Exec{Kernel: f.c.Kernel}).Fork(p, len(groups), fetchOne)
		} else {
			for i := range groups {
				fetchOne(i, nil)
			}
		}
		for _, blobs := range results {
			for code, b := range blobs {
				out[code] = b
			}
		}
		return errs
	})
	if err != nil {
		return nil, err
	}
	if len(spent) > 0 {
		return nil, fmt.Errorf("cluster: atom %v unavailable on every replica peer of node %d: %w", codes[spent[0].Key], f.self, spent[0].Err)
	}
	return out, nil
}

// peerLinks are created lazily per owner node.
func (c *Cluster) peerLink(owner int) *netmodel.Link { return c.peerLinks[owner] }

// Build assembles a cluster over the source's dataset and ingests every
// raw field at every time-step into the node stores.
func Build(gen Source, cfg Config) (*Cluster, error) {
	if cfg.Nodes == 0 {
		cfg.Nodes = 4
	}
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("cluster: nodes must be ≥ 1")
	}
	if cfg.Processes == 0 {
		cfg.Processes = 1
	}
	if cfg.Cores == 0 {
		cfg.Cores = 8
	}
	if cfg.Registry == nil {
		cfg.Registry = derived.Standard()
	}
	if cfg.HDD.Name == "" {
		cfg.HDD = diskmodel.HDDRaid()
	}
	if cfg.SSD.Name == "" {
		cfg.SSD = diskmodel.SSD()
	}
	if cfg.NodeLink.Name == "" {
		cfg.NodeLink = netmodel.ClusterLink("fabric")
	}
	if cfg.UserLink.Name == "" {
		cfg.UserLink = netmodel.UserLink("user-wan")
	}

	if cfg.Replication > cfg.Nodes {
		cfg.Replication = cfg.Nodes
	}

	c := &Cluster{gen: gen}
	g := gen.Grid()

	if cfg.Simulate {
		c.Kernel = sim.New()
		if cfg.Costs.PerPoint == nil {
			costs, err := node.Calibrate(cfg.Registry, 4)
			if err != nil {
				return nil, err
			}
			cfg.Costs = costs
		}
	}
	c.cfg = cfg

	// Resolve the data layout: the equal split, or k-way replica
	// placement over the initial membership.
	ranges := g.AtomRange().Split(cfg.Nodes, 1)
	replicated := cfg.Replication >= 2
	var pl membership.Placement
	if replicated {
		ids := make([]int, cfg.Nodes)
		for i := range ids {
			ids[i] = i
		}
		c.table = membership.NewTable(ids...)
		var err error
		pl, err = membership.Place(g.AtomRange(), ids, cfg.Replication)
		if err != nil {
			return nil, err
		}
		ranges = pl.Ranges
	}

	var nodeLinks []*netmodel.Link
	for i := 0; i < cfg.Nodes; i++ {
		nd, link, err := c.buildNode(i, ranges[i])
		if err != nil {
			return nil, err
		}
		if replicated {
			// Replica ranges are adopted before ingest so IngestBlock
			// materializes them alongside the primary.
			for _, r := range pl.RangesOf(i) {
				nd.Store().AdoptRange(r)
			}
		}
		if cfg.Simulate {
			nodeLinks = append(nodeLinks, link)
		}
	}

	// wire peer fetchers
	for i, nd := range c.nodes {
		nd.SetPeers(&peerFetcher{c: c, self: i})
	}

	// ingest the dataset
	for _, rf := range gen.RawFields() {
		for step := 0; step < gen.Steps(); step++ {
			bl, err := gen.Field(rf.Name, step)
			if err != nil {
				return nil, err
			}
			for _, nd := range c.nodes {
				if _, err := nd.Store().IngestBlock(rf.Name, step, bl); err != nil {
					return nil, err
				}
			}
		}
	}

	if cfg.Simulate {
		var err error
		c.user, err = netmodel.New(c.Kernel, cfg.UserLink)
		if err != nil {
			return nil, err
		}
	}
	clients := make([]mediator.NodeClient, len(c.nodes))
	for i, nd := range c.nodes {
		clients[i] = nd
	}
	mcfg := mediator.Config{
		Nodes: clients, Kernel: c.Kernel, NodeLinks: nodeLinks, UserLink: c.user,
		AllowPartial: cfg.AllowPartial && !cfg.Simulate,
	}
	if replicated {
		p := pl
		c.topoMu.Lock()
		c.placement = &p
		c.version = 1
		c.topoMu.Unlock()
		mcfg.Topology = &mediator.Topology{Version: 1, Ranges: pl.Ranges, Owners: pl.Owners}
		mcfg.Members = c.table
	}
	med, err := mediator.New(mcfg)
	if err != nil {
		return nil, err
	}
	c.Mediator = med
	return c, nil
}

// buildNode constructs node i — disks, store (with its raw-field schemas),
// cache, links — with the given primary range, and appends it to the
// cluster. The returned link is the mediator↔node fabric link (nil in real
// mode). Used by Build for the initial membership and by Join for nodes
// added later.
func (c *Cluster) buildNode(i int, primary morton.Range) (*node.Node, *netmodel.Link, error) {
	cfg := c.cfg
	var hdd, ssd *diskmodel.Device
	var kernel *sim.Kernel
	exec := node.RealExec()
	if cfg.Simulate {
		kernel = c.Kernel
		var err error
		hdd, err = diskmodel.New(kernel, namedDisk(cfg.HDD, fmt.Sprintf("hdd%d", i)))
		if err != nil {
			return nil, nil, err
		}
		ssd, err = diskmodel.New(kernel, namedDisk(cfg.SSD, fmt.Sprintf("ssd%d", i)))
		if err != nil {
			return nil, nil, err
		}
		exec = node.SimExec(kernel, cfg.Cores)
	}
	st, err := store.New(store.Config{
		Grid: c.gen.Grid(), Owned: primary, Kernel: kernel, Device: hdd,
	})
	if err != nil {
		return nil, nil, err
	}
	for _, rf := range c.gen.RawFields() {
		if err := st.CreateField(store.FieldMeta{Name: rf.Name, NComp: rf.NComp}); err != nil {
			return nil, nil, err
		}
	}
	var ca *cache.Cache
	if cfg.WithCache {
		ca, err = cache.New(cache.Config{
			CapacityBytes: cfg.CacheCapacity, SSD: ssd,
			AggEntries: cfg.CachePDF,
		})
		if err != nil {
			return nil, nil, err
		}
	}
	nd, err := node.New(node.Config{
		ID: i, Dataset: c.gen.Name(),
		Store: st, Cache: ca, Registry: cfg.Registry,
		Processes: cfg.Processes, Exec: exec, Costs: cfg.Costs,
		AllowPartialHalo: cfg.AllowPartial && !cfg.Simulate,
		NoSynopsis:       cfg.NoSynopsis,
	})
	if err != nil {
		return nil, nil, err
	}
	c.nodes = append(c.nodes, nd)
	c.hdds = append(c.hdds, hdd)
	c.ssds = append(c.ssds, ssd)
	var link *netmodel.Link
	if cfg.Simulate {
		link, err = netmodel.New(c.Kernel, namedLink(cfg.NodeLink, fmt.Sprintf("fabric%d", i)))
		if err != nil {
			return nil, nil, err
		}
		plink, err := netmodel.New(c.Kernel, namedLink(cfg.NodeLink, fmt.Sprintf("peer%d", i)))
		if err != nil {
			return nil, nil, err
		}
		c.peerLinks = append(c.peerLinks, plink)
	}
	return nd, link, nil
}

// namedDisk copies a disk spec with a new name.
func namedDisk(s diskmodel.Spec, name string) diskmodel.Spec {
	s.Name = name
	return s
}

// namedLink copies a link spec with a new name.
func namedLink(s netmodel.Spec, name string) netmodel.Spec {
	s.Name = name
	return s
}

// Generator returns the dataset source the cluster was built from.
func (c *Cluster) Generator() Source { return c.gen }

// Membership returns the cluster's membership table (nil without
// replication).
func (c *Cluster) Membership() *membership.Table { return c.table }

// Placement returns a copy of the replica placement in effect (zero value
// without replication).
func (c *Cluster) Placement() membership.Placement {
	pl := c.placementSnapshot()
	if pl == nil {
		return membership.Placement{}
	}
	return *pl
}

// TopologyVersion returns the routing-table version in effect (0 without
// replication).
func (c *Cluster) TopologyVersion() uint64 {
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	return c.version
}

// Nodes returns the cluster's database nodes.
func (c *Cluster) Nodes() []*node.Node { return c.nodes }

// HDD returns node i's data device (nil in real mode).
func (c *Cluster) HDD(i int) *diskmodel.Device { return c.hdds[i] }

// SSD returns node i's cache device (nil in real mode).
func (c *Cluster) SSD(i int) *diskmodel.Device { return c.ssds[i] }

// RunQuery executes fn as a simulated user process and returns the virtual
// time it took; in real mode fn runs inline (p == nil) and wall time is
// returned.
func (c *Cluster) RunQuery(fn func(p *sim.Proc) error) (time.Duration, error) {
	if c.Kernel == nil {
		start := time.Now()
		err := fn(nil)
		return time.Since(start), err
	}
	start := c.Kernel.Now()
	var qerr error
	c.Kernel.Go("user-query", func(p *sim.Proc) { qerr = fn(p) })
	if err := c.Kernel.Run(); err != nil {
		return 0, err
	}
	return c.Kernel.Now() - start, qerr
}
