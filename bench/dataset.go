package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/turbdb/turbdb/internal/cache"
	"github.com/turbdb/turbdb/internal/cluster"
	"github.com/turbdb/turbdb/internal/field"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/mediator"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/node"
	"github.com/turbdb/turbdb/internal/sched"
	"github.com/turbdb/turbdb/internal/sim"
	"github.com/turbdb/turbdb/internal/store"
	"github.com/turbdb/turbdb/internal/synth"
	"github.com/turbdb/turbdb/internal/wire"
)

// The dataset never varies: synthetic MHD, dataset seed 2015, atom side 8,
// 4 nodes × 1 process, no replication. Only the grid side and the number
// of time-steps differ between workloads.
const (
	datasetSeed = 2015
	nodeCount   = 4
	batchWindow = 2 * time.Millisecond // turbdb-mediator's -sched-window default
)

// schedDefaults are the scheduler settings of a turbdb-mediator started
// without -sched-* flags.
func schedDefaults() sched.Config { return sched.Config{BatchWindow: batchWindow} }

// source is a synthetic dataset generated once per set-up: every block is
// synthesized up front (timed as synth.generate_s) and handed out to every
// consumer — the four stores and the oracle — from memory.
type source struct {
	gen    *synth.Generator
	blocks map[string][]*field.Block // raw field → step → whole-domain block
}

func newSource(n, steps int) (*source, error) {
	gen, err := synth.New(synth.Params{N: n, Seed: datasetSeed, Kind: synth.MHD, Steps: steps})
	if err != nil {
		return nil, err
	}
	s := &source{gen: gen, blocks: make(map[string][]*field.Block)}
	for _, rf := range gen.RawFields() {
		for step := 0; step < steps; step++ {
			bl, err := gen.Field(rf.Name, step)
			if err != nil {
				return nil, err
			}
			s.blocks[rf.Name] = append(s.blocks[rf.Name], bl)
		}
	}
	return s, nil
}

func (s *source) Grid() grid.Grid             { return s.gen.Grid() }
func (s *source) RawFields() []synth.RawField { return s.gen.RawFields() }
func (s *source) Steps() int                  { return s.gen.Steps() }
func (s *source) Name() string                { return s.gen.Name() }

func (s *source) Field(name string, step int) (*field.Block, error) {
	bls := s.blocks[name]
	if step < 0 || step >= len(bls) {
		return nil, fmt.Errorf("bench: no block for %q step %d", name, step)
	}
	return bls[step], nil
}

// system is one assembled cluster under test. Callers drive entry (the
// bare mediator or the scheduler, in process) or user (a client of the
// loopback mediator service).
type system struct {
	nodes []*node.Node
	med   *mediator.Mediator
	entry wire.Querier
	user  *wire.Client // nil for in-process workloads
	close func()
}

// systemConfig selects the deployment shape of a workload.
type systemConfig struct {
	http          bool // loopback HTTP services instead of in-process calls
	frames        bool // frame encoding on both hops (HTTP only)
	sched         bool // scheduler at daemon defaults in front of the mediator
	cache         bool
	cacheCapacity int64
	tr            *tracer // nil = tracing off: nothing is wrapped
}

// buildStores creates the four node stores and ingests every raw field at
// every step into each, as turbdb-gen + turbdb-server would from disk.
func buildStores(src *source) ([]*store.Store, error) {
	g := src.Grid()
	ranges := g.AtomRange().Split(nodeCount, 1)
	stores := make([]*store.Store, nodeCount)
	for i := range stores {
		st, err := store.New(store.Config{Grid: g, Owned: ranges[i]})
		if err != nil {
			return nil, err
		}
		for _, rf := range src.RawFields() {
			if err := st.CreateField(store.FieldMeta{Name: rf.Name, NComp: rf.NComp}); err != nil {
				return nil, err
			}
		}
		stores[i] = st
	}
	for _, rf := range src.RawFields() {
		for step := 0; step < src.Steps(); step++ {
			bl, err := src.Field(rf.Name, step)
			if err != nil {
				return nil, err
			}
			for _, st := range stores {
				if _, err := st.IngestBlock(rf.Name, step, bl); err != nil {
					return nil, err
				}
			}
		}
	}
	return stores, nil
}

// localPeers routes halo fetches between in-process nodes: the legacy
// one-owner-per-range path of cluster.Build's fetcher, which is private to
// that package. Only the traced in-process assembly installs it (so the
// fetch can be wrapped); untraced runs keep cluster.Build's own.
type localPeers struct {
	nodes []*node.Node
	self  int
}

func (lp *localPeers) FetchAtoms(ctx context.Context, p *sim.Proc, rawField string, step int, codes []morton.Code) (map[morton.Code][]byte, error) {
	byOwner := make(map[int][]morton.Code)
	for _, c := range codes {
		owner := -1
		for i, n := range lp.nodes {
			if i != lp.self && n.Owned().Contains(c) {
				owner = i
				break
			}
		}
		if owner < 0 {
			return nil, fmt.Errorf("bench: atom %v owned by no peer of node %d", c, lp.self)
		}
		byOwner[owner] = append(byOwner[owner], c)
	}
	out := make(map[morton.Code][]byte, len(codes))
	for owner := 0; owner < len(lp.nodes); owner++ {
		want := byOwner[owner]
		if len(want) == 0 {
			continue
		}
		blobs, err := lp.nodes[owner].FetchAtoms(ctx, p, rawField, step, want)
		if err != nil {
			return nil, err
		}
		for c, b := range blobs {
			out[c] = b
		}
	}
	return out, nil
}

// assembleInProcess builds the in-process shape: cluster.Build in real
// mode, which ingests the dataset into the four stores.
func assembleInProcess(src *source, cfg systemConfig) (*cluster.Cluster, error) {
	return cluster.Build(src, cluster.Config{
		Nodes: nodeCount, Processes: 1, WithCache: cfg.cache, CacheCapacity: cfg.cacheCapacity,
	})
}

// wireInProcess puts the workload's entry point in front of an in-process
// cluster: the bare mediator, or a scheduler at daemon defaults. With
// tracing on, the mediator is rebuilt over wrapped node clients and the
// nodes' peers are replaced by wrapped fetchers — for good, so a traced
// system is the last one wired over a cluster.
func wireInProcess(c *cluster.Cluster, cfg systemConfig) (*system, error) {
	sys := &system{nodes: c.Nodes(), med: c.Mediator, entry: c.Mediator, close: func() {}}
	var backend sched.Backend = sys.med
	if cfg.tr != nil {
		clients := make([]mediator.NodeClient, len(sys.nodes))
		for i, n := range sys.nodes {
			n.SetPeers(&tracedPeers{tr: cfg.tr, inner: &localPeers{nodes: sys.nodes, self: i}})
			clients[i] = &tracedNode{tr: cfg.tr, inner: n, name: "node"}
		}
		med, err := mediator.New(mediator.Config{Nodes: clients})
		if err != nil {
			return nil, err
		}
		tb := newTracedBackend(cfg.tr, med)
		sys.med, backend, sys.entry = med, tb, tb
	}
	if cfg.sched {
		s, err := sched.New(backend, schedDefaults())
		if err != nil {
			return nil, err
		}
		sys.entry, sys.close = s, s.Close
		if cfg.tr != nil {
			sys.entry = &tracedQuerier{cfg.tr, s, "sched"}
		}
	}
	return sys, nil
}

// listenAndServe serves handler on a free loopback port. The returned stop
// function closes the listener and every connection and waits for the
// serving goroutine to end.
func listenAndServe(handler http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: handler}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = srv.Serve(ln) //lint:allow droppederr Serve returns http.ErrServerClosed on stop; nothing to act on
	}()
	return "http://" + ln.Addr().String(), func() {
		_ = srv.Close() //lint:allow droppederr best-effort teardown of a loopback listener
		wg.Wait()
	}, nil
}

// assembleHTTP builds the examples/cluster-http shape inside this process:
// one node service per store, halo exchange and mediator fan-out over
// loopback HTTP, and the mediator service at turbdb-mediator's defaults.
// The stores are shared between assemblies; nodes, caches, the scheduler
// and the listeners are fresh each time.
func assembleHTTP(src *source, stores []*store.Store, cfg systemConfig) (*system, error) {
	sys := &system{}
	var mu sync.Mutex
	var stops []func()
	sys.close = func() {
		mu.Lock()
		defer mu.Unlock()
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
		stops = nil
	}
	fail := func(err error) (*system, error) {
		sys.close()
		return nil, err
	}

	proto := wire.ProtoJSON
	if cfg.frames {
		proto = wire.ProtoFrame
	}
	// Node clients as turbdb-mediator builds them (its -node-proto flag),
	// peer clients as turbdb-server builds them (always JSON).
	nodeOpts := []wire.ClientOption{wire.WithProto(proto)}
	var peerOpts []wire.ClientOption
	userOpts := []wire.ClientOption{wire.WithProto(proto)}
	if cfg.tr != nil {
		nodeOpts = append(nodeOpts, wire.WithTransport(cfg.tr.transport("")))
		peerOpts = append(peerOpts, wire.WithTransport(cfg.tr.transport("")))
		userOpts = append(userOpts, wire.WithTransport(cfg.tr.transport("wire.user_rpc")))
	}

	var nodeClients, peerClients []*wire.Client
	for i, st := range stores {
		var ca *cache.Cache
		if cfg.cache {
			var err error
			if ca, err = cache.New(cache.Config{CapacityBytes: cfg.cacheCapacity}); err != nil {
				return fail(err)
			}
		}
		n, err := node.New(node.Config{ID: i, Dataset: src.Name(), Store: st, Cache: ca, Processes: 1})
		if err != nil {
			return fail(err)
		}
		sys.nodes = append(sys.nodes, n)
		handler := wire.NewNodeServer(n).Handler()
		if cfg.tr != nil {
			handler = cfg.tr.handler(handler, "wire.node_handler")
		}
		url, stop, err := listenAndServe(handler)
		if err != nil {
			return fail(err)
		}
		stops = append(stops, stop)
		nodeClients = append(nodeClients, wire.NewClient(url, nodeOpts...))
		peerClients = append(peerClients, wire.NewClient(url, peerOpts...))
	}
	mcs := make([]mediator.NodeClient, len(nodeClients))
	for i, n := range sys.nodes {
		var peers node.PeerFetcher = wire.NewPeerSet(peerClients, i)
		mcs[i] = nodeClients[i]
		if cfg.tr != nil {
			peers = &tracedPeers{tr: cfg.tr, inner: peers}
			mcs[i] = &tracedNode{tr: cfg.tr, inner: nodeClients[i], name: "wire.node_rpc"}
		}
		n.SetPeers(peers)
	}
	med, err := mediator.New(mediator.Config{Nodes: mcs})
	if err != nil {
		return fail(err)
	}
	sys.med = med
	var q wire.Querier = med
	var backend sched.Backend = med
	if cfg.tr != nil {
		tb := newTracedBackend(cfg.tr, med)
		q, backend = tb, tb
	}
	if cfg.sched {
		s, err := sched.New(backend, schedDefaults())
		if err != nil {
			return fail(err)
		}
		stops = append(stops, s.Close)
		q = s
		if cfg.tr != nil {
			q = &tracedQuerier{cfg.tr, s, "sched"}
		}
	}
	handler := wire.NewQuerierServer(q).Handler()
	if cfg.tr != nil {
		handler = cfg.tr.handler(handler, "wire.mediator_handler")
	}
	url, stop, err := listenAndServe(handler)
	if err != nil {
		return fail(err)
	}
	stops = append(stops, stop)
	sys.user = wire.NewClient(url, userOpts...)
	return sys, nil
}
