package wire

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"reflect"
	"testing"

	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/mediator"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/node"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sim"
	"github.com/turbdb/turbdb/internal/store"
	"github.com/turbdb/turbdb/internal/synth"
)

// startNodes builds nNodes database nodes, serves each over httptest, and
// wires their halo exchange through HTTP clients — an end-to-end test of
// the remote transport.
func startNodes(t *testing.T, nNodes int, opts ...ServerOption) ([]*Client, *synth.Generator) {
	t.Helper()
	gen, err := synth.New(synth.Params{N: 16, Seed: 21, Kind: synth.MHD})
	if err != nil {
		t.Fatal(err)
	}
	g := gen.Grid()
	ranges := g.AtomRange().Split(nNodes, 1)
	nodes := make([]*node.Node, nNodes)
	clients := make([]*Client, nNodes)
	for i := 0; i < nNodes; i++ {
		st, err := store.New(store.Config{Grid: g, Owned: ranges[i]})
		if err != nil {
			t.Fatal(err)
		}
		for _, rf := range gen.RawFields() {
			if err := st.CreateField(store.FieldMeta{Name: rf.Name, NComp: rf.NComp}); err != nil {
				t.Fatal(err)
			}
			bl, err := gen.Field(rf.Name, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.IngestBlock(rf.Name, 0, bl); err != nil {
				t.Fatal(err)
			}
		}
		nodes[i], err = node.New(node.Config{ID: i, Dataset: "mhd", Store: st})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, n := range nodes {
		srv := httptest.NewServer(NewNodeServer(n, opts...).Handler())
		t.Cleanup(srv.Close)
		clients[i] = NewClient(srv.URL)
	}
	// halo exchange over HTTP: each node fetches from the peer clients
	for i, n := range nodes {
		n.SetPeers(&httpPeers{clients: clients, self: i})
	}
	return clients, gen
}

// httpPeers routes halo requests to owning nodes via their HTTP clients.
type httpPeers struct {
	clients []*Client
	self    int
}

func (h *httpPeers) FetchAtoms(ctx context.Context, p *sim.Proc, rawField string, step int, codes []morton.Code) (map[morton.Code][]byte, error) {
	out := make(map[morton.Code][]byte, len(codes))
	for i, c := range h.clients {
		if i == h.self {
			continue
		}
		owned, err := c.Owned(context.Background())
		if err != nil {
			return nil, err
		}
		var mine []morton.Code
		for _, code := range codes {
			if owned.Contains(code) {
				mine = append(mine, code)
			}
		}
		if len(mine) == 0 {
			continue
		}
		blobs, err := c.FetchAtoms(ctx, p, rawField, step, mine)
		if err != nil {
			return nil, err
		}
		for code, blob := range blobs {
			out[code] = blob
		}
	}
	return out, nil
}

func TestNodeServiceEndToEnd(t *testing.T) {
	clients, _ := startNodes(t, 2)
	q := query.Threshold{Dataset: "mhd", Field: derived.Current, Threshold: 1.0}

	// direct (in-process) reference via a mediator over the HTTP clients
	mcs := make([]mediator.NodeClient, len(clients))
	for i, c := range clients {
		mcs[i] = c
	}
	m, err := mediator.New(mediator.Config{Nodes: mcs})
	if err != nil {
		t.Fatal(err)
	}
	pts, stats, err := m.Threshold(context.Background(), nil, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("no points over the wire")
	}
	if stats.NodeCritical.PointsExamined == 0 {
		t.Error("breakdown lost over the wire")
	}

	// PDF and TopK over the wire
	counts, _, err := m.PDF(context.Background(), nil, query.PDF{Dataset: "mhd", Field: derived.Magnetic, Bins: 4, Width: 1})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != 16*16*16 {
		t.Errorf("PDF total %d", total)
	}
	top, _, err := m.TopK(context.Background(), nil, query.TopK{Dataset: "mhd", Field: derived.Current, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 5 {
		t.Errorf("topk returned %d", len(top))
	}
}

func TestMediatorService(t *testing.T) {
	clients, _ := startNodes(t, 2)
	mcs := make([]mediator.NodeClient, len(clients))
	for i, c := range clients {
		mcs[i] = c
	}
	m, err := mediator.New(mediator.Config{Nodes: mcs})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewMediatorServer(m).Handler())
	defer srv.Close()
	user := NewClient(srv.URL)

	info, err := user.Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.Dataset != "mhd" || info.GridN != 16 {
		t.Errorf("info = %+v", info)
	}
	res, err := user.GetThreshold(context.Background(), nil, query.Threshold{
		Dataset: "mhd", Field: derived.Current, Threshold: 1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no points through mediator service")
	}
}

// TestFetchAtomsOverWire fetches an atom from a default server, where the
// halo hop rides raw-blob frames whatever the client's protocol, and from
// a JSON-only one, where it falls back to base64: byte-identical blobs.
func TestFetchAtomsOverWire(t *testing.T) {
	fetch := func(expectFrames bool, opts ...ServerOption) []byte {
		clients, gen := startNodes(t, 2, opts...)
		owned, err := clients[0].Owned(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		peer, hop := recordedClients(clients[:1], ProtoJSON)
		blobs, err := peer[0].FetchAtoms(context.Background(), nil, derived.Velocity, 0, []morton.Code{owned.Lo})
		if err != nil {
			t.Fatal(err)
		}
		want := gen.Grid().PointsPerAtom() * 3 * 4
		if len(blobs[owned.Lo]) != want {
			t.Errorf("atom blob %d bytes, want %d", len(blobs[owned.Lo]), want)
		}
		if hop.allFrames(PathAtoms) != expectFrames {
			t.Errorf("halo hop encodings %v, want frames: %v", hop.seen[PathAtoms], expectFrames)
		}
		return blobs[owned.Lo]
	}
	if framed, fallback := fetch(true), fetch(false, WithJSONOnly()); !bytes.Equal(framed, fallback) {
		t.Error("the frame and the JSON halo hop returned different blobs")
	}
}

func TestThresholdTooLowOverWire(t *testing.T) {
	clients, _ := startNodes(t, 1)
	_, err := clients[0].GetThreshold(context.Background(), nil, query.Threshold{
		Dataset: "mhd", Field: derived.Magnetic, Threshold: 0, Limit: 10,
	})
	var tooMany *query.ErrTooManyPoints
	if !errors.As(err, &tooMany) {
		t.Fatalf("err = %v, want typed ErrTooManyPoints", err)
	}
	if !errors.Is(err, query.ErrThresholdTooLow) {
		t.Error("typed error lost over the wire")
	}
}

func TestBadRequestsRejected(t *testing.T) {
	clients, _ := startNodes(t, 1)
	if _, err := clients[0].GetThreshold(context.Background(), nil, query.Threshold{Field: "x", Threshold: 1}); err == nil {
		t.Error("missing dataset accepted over wire")
	}
	if err := clients[0].SetProcesses(context.Background(), -1); err == nil {
		t.Error("negative processes accepted over wire")
	}
}

func TestDropCacheAndSetProcessesOverWire(t *testing.T) {
	clients, _ := startNodes(t, 1)
	if err := clients[0].SetProcesses(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if err := clients[0].DropCacheEntry(context.Background(), derived.Current, 4, 0); err != nil {
		t.Fatal(err)
	}
}

func TestDTORoundTrips(t *testing.T) {
	b := grid.Box{Lo: grid.Point{X: 1, Y: 2, Z: 3}, Hi: grid.Point{X: 4, Y: 5, Z: 6}}
	q := query.Threshold{Dataset: "d", Field: "f", Timestep: 2, Threshold: 3.5, Box: b, FDOrder: 6, Limit: 99}
	if got := ThresholdRequestFor(q).ToQuery(); !reflect.DeepEqual(got, q) {
		t.Errorf("threshold round trip: %+v vs %+v", got, q)
	}
	pq := query.PDF{Dataset: "d", Field: "f", Timestep: 1, Box: b, Bins: 5, Min: 1, Width: 2, FDOrder: 2}
	if got := PDFRequestFor(pq).ToQuery(); !reflect.DeepEqual(got, pq) {
		t.Errorf("pdf round trip: %+v vs %+v", got, pq)
	}
	tq := query.TopK{Dataset: "d", Field: "f", Timestep: 1, Box: b, K: 9, FDOrder: 8}
	if got := TopKRequestFor(tq).ToQuery(); !reflect.DeepEqual(got, tq) {
		t.Errorf("topk round trip: %+v vs %+v", got, tq)
	}
	pts := []query.ResultPoint{{Code: 42, Value: 1.5}, {Code: 7, Value: -2}}
	if got := fromDTO(toDTO(pts)); got[0] != pts[0] || got[1] != pts[1] {
		t.Errorf("points round trip: %v", got)
	}
}
