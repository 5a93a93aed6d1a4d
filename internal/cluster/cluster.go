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
	// CacheCapacity bounds each node's cached threshold results in modeled
	// SSD bytes; 0 = unlimited. PDF histograms have a constant budget of
	// their own (internal/cache).
	CacheCapacity int64
	// Simulate builds the cluster on a DES kernel with modeled resources:
	// per node a RAID HDD, an SSD cache device, simCores cores and fabric
	// links, and one user WAN link in front of the mediator.
	Simulate bool
	// Costs is the per-point compute cost model for simulation charging; a
	// zero model with Simulate=true triggers calibration on this host.
	Costs node.CostModel
	// Registry resolves field names; nil uses the standard catalog.
	Registry *derived.Registry
	// AllowPartial lets the mediator answer from the ranges it could
	// evaluate, with Coverage the exact fraction of cells covered. A node
	// whose halo cannot be fetched fails its range like a dead one; it
	// never answers partially. Real mode only.
	AllowPartial bool
	// Replication is k, the number of nodes holding each Morton range of
	// the placement. 0 and 1 place one owner per range; k ≥ 2 adds replica
	// failover in the mediator and halo fetchers. Clamped to Nodes.
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
	nodes     []*node.Node
	peerLinks []*netmodel.Link // one per node, appended by buildNode in simulation
	user      *netmodel.Link
}

// simCores is the simulated CPU core count per node: paper nodes are dual
// quad-core.
const simCores = 8

// haloRouter is node self's halo fetcher: it routes by the mediator's
// routing table and breakers, reads from the holders' stores in process,
// and in simulation charges the holder's link for the transfer.
func (c *Cluster) haloRouter(self int) *node.HaloRouter {
	return &node.HaloRouter{
		Table: func(context.Context) (membership.Placement, error) {
			return c.Mediator.Topology(), nil
		},
		State: func(id int) faulttol.State { return c.Mediator.BreakerState(id) },
		Self:  self,
		Fetch: func(ctx context.Context, p *sim.Proc, holder int, rawField string, step int, codes []morton.Code) (map[morton.Code][]byte, error) {
			blobs, err := c.nodes[holder].FetchAtoms(ctx, p, rawField, step, codes)
			if err == nil && c.Kernel != nil && p != nil {
				total := 0
				for _, b := range blobs {
					total += len(b)
				}
				c.peerLinks[holder].Transfer(p, total)
			}
			return blobs, err
		},
		Kernel: c.Kernel,
	}
}

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
	if cfg.Registry == nil {
		cfg.Registry = derived.Standard()
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

	// The placement; at k = 1 that is the equal split with one owner per
	// range.
	pl, err := membership.Place(g.AtomRange(), cfg.Nodes, cfg.Replication)
	if err != nil {
		return nil, err
	}

	var nodeLinks []*netmodel.Link
	for i := 0; i < cfg.Nodes; i++ {
		nd, link, err := c.buildNode(cfg, i, pl.Ranges[i])
		if err != nil {
			return nil, err
		}
		// Replica ranges are adopted before ingest so IngestBlock
		// materializes them alongside the primary.
		for _, r := range pl.RangesOf(i) {
			nd.Store().AdoptRange(r)
		}
		if cfg.Simulate {
			nodeLinks = append(nodeLinks, link)
		}
	}

	// wire peer fetchers
	for i, nd := range c.nodes {
		nd.SetPeers(c.haloRouter(i))
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
		c.user, err = netmodel.New(c.Kernel, netmodel.UserLink("user-wan"))
		if err != nil {
			return nil, err
		}
	}
	clients := make([]mediator.NodeClient, len(c.nodes))
	for i, nd := range c.nodes {
		clients[i] = nd
	}
	// The nodes hold exactly pl, so the table the mediator reads off their
	// holdings is pl.
	med, err := mediator.New(mediator.Config{
		Nodes: clients, Kernel: c.Kernel, NodeLinks: nodeLinks, UserLink: c.user,
		AllowPartial: cfg.AllowPartial && !cfg.Simulate,
	})
	if err != nil {
		return nil, err
	}
	c.Mediator = med
	return c, nil
}

// buildNode constructs node i — disks, store (with its raw-field schemas),
// cache, links — with the given primary range, and appends it to the
// cluster. The returned link is the mediator↔node fabric link (nil in real
// mode).
func (c *Cluster) buildNode(cfg Config, i int, primary morton.Range) (*node.Node, *netmodel.Link, error) {
	var hdd, ssd *diskmodel.Device
	var kernel *sim.Kernel
	exec := node.RealExec()
	if cfg.Simulate {
		kernel = c.Kernel
		var err error
		hdd, err = diskmodel.New(kernel, namedDisk(diskmodel.HDDRaid(), fmt.Sprintf("hdd%d", i)))
		if err != nil {
			return nil, nil, err
		}
		ssd, err = diskmodel.New(kernel, namedDisk(diskmodel.SSD(), fmt.Sprintf("ssd%d", i)))
		if err != nil {
			return nil, nil, err
		}
		exec = node.SimExec(kernel, simCores)
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
		ca, err = cache.New(cache.Config{CapacityBytes: cfg.CacheCapacity, SSD: ssd})
		if err != nil {
			return nil, nil, err
		}
	}
	nd, err := node.New(node.Config{
		ID: i, Dataset: c.gen.Name(),
		Store: st, Cache: ca, Registry: cfg.Registry,
		Processes: cfg.Processes, Exec: exec, Costs: cfg.Costs,
		NoSynopsis: cfg.NoSynopsis,
	})
	if err != nil {
		return nil, nil, err
	}
	c.nodes = append(c.nodes, nd)
	var link *netmodel.Link
	if cfg.Simulate {
		link, err = netmodel.New(c.Kernel, netmodel.ClusterLink(fmt.Sprintf("fabric%d", i)))
		if err != nil {
			return nil, nil, err
		}
		plink, err := netmodel.New(c.Kernel, netmodel.ClusterLink(fmt.Sprintf("peer%d", i)))
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

// Generator returns the dataset source the cluster was built from.
func (c *Cluster) Generator() Source { return c.gen }

// Nodes returns the cluster's database nodes.
func (c *Cluster) Nodes() []*node.Node { return c.nodes }

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
