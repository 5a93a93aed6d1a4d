package wire

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/field"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/membership"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/node"
	"github.com/turbdb/turbdb/internal/obs"
	"github.com/turbdb/turbdb/internal/sim"
)

// haloBudget is the byte budget of a PeerSet's halo store. The bands of a
// 64³ step at order 4 come to about 1.5 MiB per node; the budget holds
// several steps of them, and a small fraction of a node's shard.
const haloBudget = 8 << 20

var (
	mHaloHits      = obs.Default().Counter("turbdb_halo_store_hits_total")
	mHaloMisses    = obs.Default().Counter("turbdb_halo_store_misses_total")
	mHaloEvictions = obs.Default().Counter("turbdb_halo_store_evictions_total")
	mHaloBytes     = obs.Default().Gauge("turbdb_halo_store_bytes")
)

// peer is what a PeerSet asks of a node service: its description (/info)
// and the atoms it holds. A *Client is one. Each blob FetchAtoms answers
// is an allocation of its own, which nothing else writes (binproto's
// decodeAtoms copies every blob of a frame apart, encoding/json every
// base64 string), so the halo store keeps it as it is.
type peer interface {
	Describe(ctx context.Context) (node.Description, error)
	FetchAtoms(ctx context.Context, p *sim.Proc, rawField string, step int, codes []morton.Code) (map[morton.Code][]byte, error)
}

// PeerSet is the node.PeerFetcher of HTTP deployments: a halo store in
// front of a node.HaloRouter over the cluster's node services.
//
// The router routes each atom to the nodes holding it, read off each
// service's /info (primary plus adopted replica ranges) into a routing
// table by membership.Describe, the rule the mediator uses: under k-way
// replication an atom has several candidate peers, tried primary first and
// then in ring order, and a fetch fails over to the next holder when one is
// down. The router keeps that order: a peer's breaker fails it fast while
// open, but does not reorder its holders. The table is built once every
// peer's holdings have been read; while a peer's cannot be, it is rebuilt on
// every fetch, and that peer holds nothing for it. Self's holdings are never
// read: its ranges go to the peers holding them as replicas. Each peer gets
// its own retry policy and circuit breaker, so one dead peer fails fast
// instead of stalling every halo exchange behind full timeouts.
//
// The halo store keeps what arrives, so a node fetches each band of a step
// once (DESIGN.md §4 decision 25).
type PeerSet struct {
	peers     []peer
	placement atomic.Pointer[membership.Placement] // set once every peer's holdings were read
	atomSide  atomic.Int64                         // of the grid, once any peer was described
	router    node.HaloRouter
	halo      *haloStore
}

// NewPeerSet builds a peer set for node self among clients (self is
// excluded from routing).
func NewPeerSet(clients []*Client, self int) *PeerSet {
	peers := make([]peer, len(clients))
	for i, c := range clients {
		peers[i] = c
	}
	return newPeerSet(peers, self, haloBudget)
}

func newPeerSet(peers []peer, self, budget int) *PeerSet {
	ft := make([]*faulttol.Executor, len(peers))
	for i := range ft {
		ft[i] = &faulttol.Executor{Policy: faulttol.DefaultPolicy(), Breaker: faulttol.NewBreaker(faulttol.BreakerConfig{})}
	}
	ps := &PeerSet{peers: peers, halo: newHaloStore(budget)}
	ps.router = node.HaloRouter{
		Table: ps.table,
		Self:  self,
		Fetch: func(ctx context.Context, p *sim.Proc, holder int, rawField string, step int, codes []morton.Code) (blobs map[morton.Code][]byte, err error) {
			err = ft[holder].Do(ctx, func(ctx context.Context) error {
				var ferr error
				blobs, ferr = peers[holder].FetchAtoms(ctx, p, rawField, step, codes)
				return ferr
			})
			return blobs, err
		},
	}
	return ps
}

// table is the router's table source: the routing table of the peers'
// holdings, read once they all could be.
func (ps *PeerSet) table(ctx context.Context) (membership.Placement, error) {
	if pl := ps.placement.Load(); pl != nil {
		return *pl, nil
	}
	held := make([][]morton.Range, len(ps.peers))
	var unreadable error // the first peer whose holdings could not be read
	for i, c := range ps.peers {
		if i == ps.router.Self {
			continue
		}
		d, err := c.Describe(ctx)
		if err != nil {
			if unreadable == nil {
				unreadable = fmt.Errorf("wire: peer %d: %w", i, err)
			}
			continue
		}
		held[i] = d.Held
		ps.atomSide.Store(int64(d.Grid.AtomSide))
	}
	pl := membership.Describe(held)
	if unreadable == nil {
		ps.placement.Store(&pl)
	}
	return pl, unreadable
}

// FetchAtoms implements node.PeerFetcher. Each atom whose held box contains
// the part ctx names (node.HaloParts; the whole atom when ctx names none)
// is served from the halo store. The rest go through the router, which asks
// for the bounding box of what is held and what is needed, so an entry only
// grows toward the whole atom; what arrives is kept. Every atom is answered
// with exactly its part, or with the whole atom from a peer that ignores
// boxes. A failed fetch answers nothing and keeps nothing.
func (ps *PeerSet) FetchAtoms(ctx context.Context, p *sim.Proc, rawField string, step int, codes []morton.Code) (map[morton.Code][]byte, error) {
	side, nc, parts := node.HaloParts(ctx)
	if parts == nil {
		if ps.atomSide.Load() == 0 {
			_, _ = ps.table(ctx) //lint:allow droppederr only the atom side is wanted here; the router reports the table's error
		}
		side = int(ps.atomSide.Load())
	}
	if side == 0 { // no peer could be described: the router fails the fetch
		return ps.router.FetchAtoms(ctx, p, rawField, step, codes)
	}
	whole := grid.Box{Hi: grid.Point{X: side, Y: side, Z: side}}
	need := func(c morton.Code) grid.Box {
		if b, ok := parts[c]; ok {
			return b
		}
		return whole
	}
	out := make(map[morton.Code][]byte, len(codes))
	var miss []morton.Code
	var ask map[morton.Code]grid.Box
	for _, c := range codes {
		blob, held := ps.halo.get(haloKey{rawField, step, c}, need(c))
		if blob != nil {
			out[c] = blob
			continue
		}
		if ask == nil {
			ask = make(map[morton.Code]grid.Box, len(codes))
		}
		miss = append(miss, c)
		ask[c] = held.Union(need(c))
	}
	mHaloHits.Add(int64(len(codes) - len(miss)))
	mHaloMisses.Add(int64(len(miss)))
	if len(miss) == 0 {
		return out, nil
	}
	got, err := ps.router.FetchAtoms(node.WithHaloParts(ctx, side, nc, ask), p, rawField, step, miss)
	if err != nil {
		return nil, err
	}
	for _, c := range miss {
		out[c] = ps.halo.keep(haloKey{rawField, step, c}, whole, ask[c], need(c), nc, got[c])
	}
	return out, nil
}

// DropHalo implements node.HaloDropper.
func (ps *PeerSet) DropHalo(rawField string, step int) { ps.halo.drop(rawField, step) }

// haloKey names one atom of one raw field at one step.
type haloKey struct {
	field string
	step  int
	code  morton.Code
}

// haloEntry is an atom-local box of an atom and exactly that box's bytes,
// in an allocation of their own: a kept band pins nothing else of the
// frame that carried it.
type haloEntry struct {
	key  haloKey
	box  grid.Box
	blob []byte
}

// haloStore keeps halo bands under a byte budget, evicted least recently
// used first. The raw data of a served step never change (store.Put refuses
// to), and an entry names no holder, so an entry stays valid across joins,
// leaves and failovers; only a node's drop of a key forgets it. Entries are
// never written after they are stored, so their bytes are read outside the
// lock.
type haloStore struct {
	budget int

	mu    sync.Mutex
	bytes int                       // guarded by mu
	lru   list.List                 // guarded by mu; of *haloEntry, most recently used first
	index map[haloKey]*list.Element // guarded by mu
}

func newHaloStore(budget int) *haloStore {
	return &haloStore{budget: budget, index: make(map[haloKey]*list.Element)}
}

// get returns the bytes of box need of k's atom when the store holds a box
// containing it: the entry's own bytes when the boxes are equal, a crop of
// them otherwise. On a miss it returns the box held, empty when none.
func (s *haloStore) get(k haloKey, need grid.Box) (blob []byte, held grid.Box) {
	s.mu.Lock()
	el, ok := s.index[k]
	if !ok {
		s.mu.Unlock()
		return nil, grid.Box{}
	}
	e := el.Value.(*haloEntry)
	if !e.box.ContainsBox(need) {
		s.mu.Unlock()
		return nil, e.box
	}
	s.lru.MoveToFront(el)
	s.mu.Unlock()
	if e.box == need {
		return e.blob, e.box
	}
	nc := len(e.blob) / 4 / e.box.NumPoints()
	return field.AppendPart(make([]byte, 0, field.ByteSize(need, nc)), e.blob, e.box, need, nc), e.box
}

// keep takes blob, a peer's answer to a request for box ask of k's atom,
// of nc components (0 when unknown, which only a request for the whole
// atom may be), and returns the part need of it. An answer that is the box
// asked is kept unless it alone is over the budget; any other answer (the
// whole atom from a peer that ignores boxes) is passed on as it is, and
// kept by nothing.
func (s *haloStore) keep(k haloKey, whole, ask, need grid.Box, nc int, blob []byte) []byte {
	if ask == whole && nc == 0 && len(blob)%(4*whole.NumPoints()) == 0 {
		nc = len(blob) / 4 / whole.NumPoints()
	}
	if nc == 0 || len(blob) != field.ByteSize(ask, nc) {
		return blob
	}
	if len(blob) <= s.budget {
		s.put(&haloEntry{key: k, box: ask, blob: blob})
	}
	if ask == need {
		return blob
	}
	return field.AppendPart(make([]byte, 0, field.ByteSize(need, nc)), blob, ask, need, nc)
}

// put stores e, replacing a held entry of its key unless that one already
// contains e's box, and evicts from the least recently used end until the
// store fits its budget.
func (s *haloStore) put(e *haloEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.index[e.key]; ok {
		old := el.Value.(*haloEntry)
		s.lru.MoveToFront(el)
		if old.box.ContainsBox(e.box) {
			return
		}
		s.resizeLocked(len(e.blob) - len(old.blob))
		el.Value = e
	} else {
		s.index[e.key] = s.lru.PushFront(e)
		s.resizeLocked(len(e.blob))
	}
	for s.bytes > s.budget {
		s.removeLocked(s.lru.Back())
		mHaloEvictions.Inc()
	}
}

// drop forgets every atom of rawField at step.
func (s *haloStore) drop(rawField string, step int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, el := range s.index {
		if k.field == rawField && k.step == step {
			s.removeLocked(el)
		}
	}
}

// removeLocked unlinks el. Called with s.mu held.
func (s *haloStore) removeLocked(el *list.Element) {
	e := s.lru.Remove(el).(*haloEntry)
	delete(s.index, e.key)
	s.resizeLocked(-len(e.blob))
}

// resizeLocked adds delta to the resident bytes. Called with s.mu held.
func (s *haloStore) resizeLocked(delta int) {
	s.bytes += delta
	mHaloBytes.Add(int64(delta))
}
