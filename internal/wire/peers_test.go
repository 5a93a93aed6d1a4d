package wire

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/turbdb/turbdb/internal/cluster"
	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/field"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/mediator"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/node"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sim"
	"github.com/turbdb/turbdb/internal/synth"
)

// stubSide and stubComps shape the atoms of a stubPeer: 64 points of one
// component, 256 bytes.
const (
	stubSide  = 4
	stubComps = 1
	stubAtom  = stubSide * stubSide * stubSide * stubComps * 4
)

var stubWhole = grid.Box{Hi: grid.Point{X: stubSide, Y: stubSide, Z: stubSide}}

// stubBlob is the whole atom code of rawField at step: bytes no other
// (field, step, code) shares.
func stubBlob(rawField string, step int, code morton.Code) []byte {
	b := make([]byte, stubAtom)
	for i := range b {
		b[i] = byte(int(code)*31 + step*7 + len(rawField) + i)
	}
	return b
}

// stubPart is the part of stubBlob a request for box asks.
func stubPart(rawField string, step int, code morton.Code, box grid.Box) []byte {
	return field.AppendPart(nil, stubBlob(rawField, step, code), stubWhole, box, stubComps)
}

// stubPeer is a node service for PeerSet tests: it holds one range and
// answers each atom with the part of stubBlob the context names, as a node
// service does. It counts the times it is described and the atoms it
// ships.
type stubPeer struct {
	held      morton.Range
	down      atomic.Bool // Describe fails
	dead      atomic.Bool // FetchAtoms fails, transiently
	describes atomic.Int64
	shipped   atomic.Int64
}

func (s *stubPeer) Describe(context.Context) (node.Description, error) {
	s.describes.Add(1)
	if s.down.Load() {
		return node.Description{}, faulttol.Transientf("stub: /info down")
	}
	g, err := grid.New(4*stubSide, stubSide, 1)
	return node.Description{Dataset: "stub", Grid: g, Owned: s.held, Held: []morton.Range{s.held}}, err
}

func (s *stubPeer) FetchAtoms(ctx context.Context, _ *sim.Proc, rawField string, step int, codes []morton.Code) (map[morton.Code][]byte, error) {
	if s.dead.Load() {
		return nil, faulttol.Transientf("stub: dead")
	}
	_, _, parts := node.HaloParts(ctx)
	out := make(map[morton.Code][]byte, len(codes))
	for _, c := range codes {
		box, ok := parts[c]
		if !ok {
			box = stubWhole
		}
		out[c] = stubPart(rawField, step, c, box)
		s.shipped.Add(1)
	}
	return out, nil
}

// stubPeers returns a PeerSet for node 0 of three: node 1 holds atoms
// [0, 32) and node 2 atoms [32, 64).
func stubPeers(budget int) (*PeerSet, []*stubPeer) {
	stubs := []*stubPeer{{}, {held: morton.Range{Lo: 0, Hi: 32}}, {held: morton.Range{Lo: 32, Hi: 64}}}
	peers := make([]peer, len(stubs))
	for i, s := range stubs {
		peers[i] = s
	}
	return newPeerSet(peers, 0, budget), stubs
}

// fetchPart fetches box of code through ps and checks the answer.
func fetchPart(t *testing.T, ps *PeerSet, code morton.Code, box grid.Box) {
	t.Helper()
	ctx := node.WithHaloParts(context.Background(), stubSide, stubComps, map[morton.Code]grid.Box{code: box})
	got, err := ps.FetchAtoms(ctx, nil, "velocity", 0, []morton.Code{code})
	if err != nil {
		t.Fatal(err)
	}
	if want := stubPart("velocity", 0, code, box); !bytes.Equal(got[code], want) {
		t.Fatalf("atom %v box %v: %d bytes differ from the peer's %d", code, box, len(got[code]), len(want))
	}
}

func held(ps *PeerSet) map[morton.Code]grid.Box {
	ps.halo.mu.Lock()
	defer ps.halo.mu.Unlock()
	out := make(map[morton.Code]grid.Box, len(ps.halo.index))
	for k, el := range ps.halo.index {
		out[k.code] = el.Value.(*haloEntry).box
	}
	return out
}

// TestPeerSetReadsRoutesOnce: the routing table is read off the peers'
// /info once every peer's holdings could be read, and re-read on every
// fetch while one peer's cannot be.
func TestPeerSetReadsRoutesOnce(t *testing.T) {
	describes := func(stubs []*stubPeer) []int64 {
		return []int64{stubs[0].describes.Load(), stubs[1].describes.Load(), stubs[2].describes.Load()}
	}
	ps, stubs := stubPeers(haloBudget)
	for c := morton.Code(0); c < 5; c++ {
		fetchPart(t, ps, c, stubWhole)
	}
	if got := describes(stubs); !reflect.DeepEqual(got, []int64{0, 1, 1}) {
		t.Fatalf("five fetches with every peer readable described the peers %v times, want [0 1 1]", got)
	}

	ps, stubs = stubPeers(haloBudget)
	stubs[2].down.Store(true)
	for c := morton.Code(0); c < 5; c++ {
		fetchPart(t, ps, c, stubWhole) // node 1 holds them: peer 2's holdings are not needed
	}
	if got := describes(stubs); !reflect.DeepEqual(got, []int64{0, 5, 5}) {
		t.Fatalf("five fetches with peer 2 unreadable described the peers %v times, want [0 5 5]", got)
	}
	stubs[2].down.Store(false)
	for c := morton.Code(40); c < 45; c++ {
		fetchPart(t, ps, c, stubWhole)
	}
	if got := describes(stubs); !reflect.DeepEqual(got, []int64{0, 6, 6}) {
		t.Fatalf("five fetches after peer 2 came back described the peers %v times, want [0 6 6]", got)
	}
}

// TestHaloStoreBands: a held box serves every part it contains, equal
// boxes as they are and smaller ones cropped; a part it does not contain
// asks for the bounding box of both, so the entry grows; what a peer ships
// is counted once.
func TestHaloStoreBands(t *testing.T) {
	ps, stubs := stubPeers(haloBudget)
	lower := grid.Box{Hi: grid.Point{X: 4, Y: 4, Z: 1}}
	upper := grid.Box{Lo: grid.Point{Z: 3}, Hi: grid.Point{X: 4, Y: 4, Z: 4}}
	inner := grid.Box{Lo: grid.Point{X: 1, Y: 1}, Hi: grid.Point{X: 3, Y: 2, Z: 1}}

	fetchPart(t, ps, 7, lower)
	fetchPart(t, ps, 7, lower)
	fetchPart(t, ps, 7, inner)
	if n := stubs[1].shipped.Load(); n != 1 {
		t.Fatalf("a band and two parts it contains shipped %d atoms, want 1", n)
	}
	fetchPart(t, ps, 7, upper)
	if n, box := stubs[1].shipped.Load(), held(ps)[7]; n != 2 || box != stubWhole {
		t.Fatalf("a second band shipped %d atoms in all and left %v held, want 2 and the bounding box %v", n, box, stubWhole)
	}
	for _, b := range []grid.Box{lower, upper, inner, stubWhole} {
		fetchPart(t, ps, 7, b)
	}
	if n := stubs[1].shipped.Load(); n != 2 {
		t.Fatalf("parts of a held atom shipped %d atoms in all, want 2", n)
	}

	ps.DropHalo("velocity", 1)
	if len(held(ps)) != 1 {
		t.Fatal("a drop of another step forgot the atom")
	}
	ps.DropHalo("velocity", 0)
	if len(held(ps)) != 0 {
		t.Fatal("a drop of the atom's step kept it")
	}
	fetchPart(t, ps, 7, inner)
	if n := stubs[1].shipped.Load(); n != 3 {
		t.Fatalf("a dropped atom was not fetched again: %d shipped, want 3", n)
	}
}

// TestHaloStoreBudget: the store evicts least recently used entries by
// bytes, serves an entry over the whole budget without keeping it, keeps
// nothing of a failed fetch, and its metrics count what it does.
func TestHaloStoreBudget(t *testing.T) {
	hits, misses, evictions := mHaloHits.Value(), mHaloMisses.Value(), mHaloEvictions.Value()
	resident := mHaloBytes.Value()

	ps, stubs := stubPeers(3 * stubAtom)
	for _, c := range []morton.Code{1, 2, 3, 1, 4} { // 1 is used again before 4 arrives: 2 is the oldest
		fetchPart(t, ps, c, stubWhole)
	}
	want := map[morton.Code]grid.Box{1: stubWhole, 3: stubWhole, 4: stubWhole}
	if got := held(ps); !reflect.DeepEqual(got, want) {
		t.Fatalf("held %v, want %v", got, want)
	}
	if ps.halo.bytes != 3*stubAtom {
		t.Fatalf("resident %d bytes, want %d", ps.halo.bytes, 3*stubAtom)
	}
	if d := mHaloBytes.Value() - resident; d != 3*stubAtom {
		t.Errorf("turbdb_halo_store_bytes moved by %d, want %d", d, 3*stubAtom)
	}
	if h, m, e := mHaloHits.Value()-hits, mHaloMisses.Value()-misses, mHaloEvictions.Value()-evictions; h != 1 || m != 4 || e != 1 {
		t.Errorf("hits/misses/evictions moved by %d/%d/%d, want 1/4/1", h, m, e)
	}

	stubs[1].dead.Store(true)
	ctx := node.WithHaloParts(context.Background(), stubSide, stubComps, nil)
	if blobs, err := ps.FetchAtoms(ctx, nil, "velocity", 0, []morton.Code{1, 5}); err == nil || blobs != nil {
		t.Fatalf("a fetch from a dead peer answered %d atoms, err %v; want none and an error", len(blobs), err)
	}
	if got := held(ps); !reflect.DeepEqual(got, want) {
		t.Fatalf("a failed fetch changed what is held: %v, want %v", got, want)
	}

	small, stubs := stubPeers(stubAtom - 1)
	evictions = mHaloEvictions.Value()
	fetchPart(t, small, 9, stubWhole)
	fetchPart(t, small, 9, stubWhole)
	if n := stubs[1].shipped.Load(); n != 2 || len(held(small)) != 0 || small.halo.bytes != 0 {
		t.Fatalf("an atom over the budget: shipped %d times, %d held, %d bytes resident; want 2, 0, 0",
			n, len(held(small)), small.halo.bytes)
	}
	if e := mHaloEvictions.Value() - evictions; e != 0 {
		t.Fatalf("an atom over the budget counted %d evictions; it was never stored", e)
	}
}

// TestHaloStoreConcurrentHits: callers fetching overlapping parts of a few
// atoms through one PeerSet, under a budget that keeps evicting, each
// receive exactly the bytes the peer would have shipped.
func TestHaloStoreConcurrentHits(t *testing.T) {
	ps, _ := stubPeers(5 * stubAtom)
	boxes := []grid.Box{
		stubWhole,
		{Hi: grid.Point{X: 4, Y: 4, Z: 2}},
		{Lo: grid.Point{X: 2}, Hi: grid.Point{X: 4, Y: 4, Z: 4}},
		{Lo: grid.Point{X: 1, Y: 1, Z: 1}, Hi: grid.Point{X: 3, Y: 3, Z: 3}},
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				parts := make(map[morton.Code]grid.Box)
				codes := []morton.Code{morton.Code(rng.Intn(8)), morton.Code(30 + rng.Intn(8))}
				for _, c := range codes {
					parts[c] = boxes[rng.Intn(len(boxes))]
				}
				step := rng.Intn(2)
				ctx := node.WithHaloParts(context.Background(), stubSide, stubComps, parts)
				got, err := ps.FetchAtoms(ctx, nil, "velocity", step, codes)
				if err != nil {
					errs <- err
					return
				}
				for _, c := range codes {
					if !bytes.Equal(got[c], stubPart("velocity", step, c, parts[c])) {
						errs <- fmt.Errorf("atom %v step %d box %v: wrong bytes", c, step, parts[c])
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if ps.halo.bytes > ps.halo.budget {
		t.Fatalf("resident %d bytes over the budget %d", ps.halo.bytes, ps.halo.budget)
	}
}

// renewedPeers is the uncached twin of a PeerSet: the test replaces its
// PeerSet with a new one before every query, so no halo atom is kept from
// one query to the next.
type renewedPeers struct {
	clients []*Client
	self    int
	ps      atomic.Pointer[PeerSet]
}

func (r *renewedPeers) renew() { r.ps.Store(NewPeerSet(r.clients, r.self)) }

func (r *renewedPeers) FetchAtoms(ctx context.Context, p *sim.Proc, rawField string, step int, codes []morton.Code) (map[morton.Code][]byte, error) {
	return r.ps.Load().FetchAtoms(ctx, p, rawField, step, codes)
}

// cropSpy counts the atoms its PeerSet answered with fewer bytes than it
// holds of them: the containment-crop path.
type cropSpy struct {
	*PeerSet
	crops *atomic.Int64
}

func (s cropSpy) FetchAtoms(ctx context.Context, p *sim.Proc, rawField string, step int, codes []morton.Code) (map[morton.Code][]byte, error) {
	blobs, err := s.PeerSet.FetchAtoms(ctx, p, rawField, step, codes)
	s.halo.mu.Lock()
	defer s.halo.mu.Unlock()
	for c, b := range blobs {
		if el, ok := s.halo.index[haloKey{rawField, step, c}]; ok && len(el.Value.(*haloEntry).blob) > len(b) {
			s.crops.Add(1)
		}
	}
	return blobs, err
}

// haloDeployment is a 32³ cluster served over loopback HTTP, its halos
// crossing HTTP, behind a mediator over its node services.
type haloDeployment struct {
	med     *mediator.Mediator
	dead    []*atomic.Bool // per node: its /atoms answers 503
	renewed []*renewedPeers
	// atoms counts the /atoms requests the nodes served, and failed those
	// a dead node refused.
	atoms, failed atomic.Int64
}

func deployHalo(t *testing.T, gen *synth.Generator, k int, kept bool, crops *atomic.Int64) *haloDeployment {
	t.Helper()
	c, err := cluster.Build(gen, cluster.Config{Nodes: 4, Processes: 2, Replication: k})
	if err != nil {
		t.Fatal(err)
	}
	d := &haloDeployment{}
	clients := make([]*Client, len(c.Nodes()))
	for i, n := range c.Nodes() {
		dead := new(atomic.Bool)
		d.dead = append(d.dead, dead)
		h := NewNodeServer(n).Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == PathAtoms {
				if dead.Load() {
					d.failed.Add(1)
					http.Error(w, "dead", http.StatusServiceUnavailable)
					return
				}
				d.atoms.Add(1)
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		clients[i] = NewClient(srv.URL)
	}
	for i, n := range c.Nodes() {
		if kept {
			n.SetPeers(cropSpy{NewPeerSet(clients, i), crops})
			continue
		}
		r := &renewedPeers{clients: clients, self: i}
		d.renewed = append(d.renewed, r)
		n.SetPeers(r)
	}
	d.med = wireMediator(t, clients, false)
	return d
}

// TestHaloStoreDifferential: a cluster whose nodes keep the halo they
// fetched answers every query Float32bits-identically, with equal
// Coverage, to a twin that keeps none from one query to the next —
// threshold, PDF and top-k over aligned and unaligned boxes at orders 4
// and 8, k = 1 and 2. Each order starts with a full scan at threshold 0;
// the revisits after it are pruned by the synopsis and read parts of the
// bands held, so hits are cropped. At k = 2 a peer's atom path then dies,
// and both clusters fail over to the replica holders.
func TestHaloStoreDifferential(t *testing.T) {
	gen, err := synth.New(synth.Params{N: 32, Seed: 15, Kind: synth.MHD})
	if err != nil {
		t.Fatal(err)
	}
	boxes := []grid.Box{
		gen.Grid().Domain(),
		{Lo: grid.Point{X: 8, Y: 0, Z: 16}, Hi: grid.Point{X: 24, Y: 16, Z: 32}},
		{Lo: grid.Point{X: 3, Y: 5, Z: 2}, Hi: grid.Point{X: 29, Y: 27, Z: 30}},
	}
	for _, k := range []int{1, 2} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			var crops atomic.Int64
			kept := deployHalo(t, gen, k, true, &crops)
			twin := deployHalo(t, gen, k, false, nil)
			hits := mHaloHits.Value()
			ctx := context.Background()
			type answer struct {
				pts      []query.ResultPoint
				counts   []int64
				coverage float64
			}
			ask := func(d *haloDeployment, q any) answer {
				t.Helper()
				for _, r := range d.renewed {
					r.renew()
				}
				var a answer
				var st *mediator.QueryStats
				var err error
				switch q := q.(type) {
				case query.Threshold:
					a.pts, st, err = d.med.Threshold(ctx, nil, q)
				case query.TopK:
					a.pts, st, err = d.med.TopK(ctx, nil, q)
				case query.PDF:
					a.counts, st, err = d.med.PDF(ctx, nil, q)
				}
				if err != nil {
					t.Fatalf("%+v: %v", q, err)
				}
				a.coverage = st.Coverage
				return a
			}
			same := func(where string, q any) answer {
				t.Helper()
				got, want := ask(kept, q), ask(twin, q)
				samePoints(t, where, got.pts, want.pts)
				if !reflect.DeepEqual(got.counts, want.counts) || got.coverage != want.coverage || got.coverage != 1 {
					t.Fatalf("%s: counts %v coverage %v, twin %v coverage %v", where, got.counts, got.coverage, want.counts, want.coverage)
				}
				return got
			}
			round := func(label string) {
				for _, order := range []int{4, 8} {
					same(fmt.Sprintf("%s o%d full scan", label, order),
						query.Threshold{Dataset: "mhd", Field: derived.Vorticity, FDOrder: order, Limit: 1 << 20})
					for _, box := range boxes {
						where := fmt.Sprintf("%s o%d %v", label, order, box)
						top := same(where+" top-k", query.TopK{Dataset: "mhd", Field: derived.Vorticity, FDOrder: order, Box: box, K: 20})
						th := query.Threshold{Dataset: "mhd", Field: derived.Vorticity, FDOrder: order, Box: box, Limit: 1 << 20,
							Threshold: float64(top.pts[len(top.pts)-1].Value) / 2}
						same(where+" threshold", th)
						same(where+" pdf", query.PDF{Dataset: "mhd", Field: derived.Current, FDOrder: order, Box: box, Bins: 8, Width: 0.5})
					}
				}
			}
			round("warm-up")
			round("revisit")
			if mHaloHits.Value() == hits {
				t.Fatal("the kept cluster served no halo atom from its store")
			}
			if crops.Load() == 0 {
				t.Fatal("no hit took the containment-crop path")
			}
			if k == 2 {
				kept.dead[1].Store(true)
				twin.dead[1].Store(true)
				round("peer 1 dead")
				if twin.failed.Load() == 0 {
					t.Fatal("the dead peer was never asked: the round did not fail over")
				}
			}
		})
	}
}

// TestDropFetchesHaloAgain: a revisit of a key serves its halo from the
// nodes' stores, and a drop of the key makes the next scan fetch it again
// over HTTP, as a first touch does.
func TestDropFetchesHaloAgain(t *testing.T) {
	gen, err := synth.New(synth.Params{N: 32, Seed: 15, Kind: synth.MHD})
	if err != nil {
		t.Fatal(err)
	}
	d := deployHalo(t, gen, 1, true, new(atomic.Int64))
	ctx := context.Background()
	q := query.Threshold{Dataset: "mhd", Field: derived.Current, Threshold: 1, Limit: 1 << 20}
	scan := func() int64 {
		t.Helper()
		before := d.atoms.Load()
		if _, _, err := d.med.Threshold(ctx, nil, q); err != nil {
			t.Fatal(err)
		}
		return d.atoms.Load() - before
	}
	if n := scan(); n == 0 {
		t.Fatal("the first scan fetched no halo")
	}
	if n := scan(); n != 0 {
		t.Fatalf("a revisit made %d /atoms requests, want its halo from the stores", n)
	}
	if err := d.med.DropCache(ctx, q.Field, q.FDOrder, q.Timestep); err != nil {
		t.Fatal(err)
	}
	if n := scan(); n == 0 {
		t.Fatal("the scan after a drop fetched no halo")
	}
}
