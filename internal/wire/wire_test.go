package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/mediator"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/node"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/store"
	"github.com/turbdb/turbdb/internal/synth"
	"github.com/turbdb/turbdb/internal/wire/binproto"
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
		n.SetPeers(NewPeerSet(clients, i))
	}
	return clients, gen
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
		d, err := clients[0].Describe(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		peer, hop := recordedClients(clients[:1], ProtoJSON)
		blobs, err := peer[0].FetchAtoms(context.Background(), nil, derived.Velocity, 0, []morton.Code{d.Owned.Lo})
		if err != nil {
			t.Fatal(err)
		}
		want := gen.Grid().PointsPerAtom() * 3 * 4
		if len(blobs[d.Owned.Lo]) != want {
			t.Errorf("atom blob %d bytes, want %d", len(blobs[d.Owned.Lo]), want)
		}
		if hop.allFrames(PathAtoms) != expectFrames {
			t.Errorf("halo hop encodings %v, want frames: %v", hop.seen[PathAtoms], expectFrames)
		}
		return blobs[d.Owned.Lo]
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

	// Hostile /v1/pdf bodies get a 400 naming the rule before any scan
	// worker sizes a histogram by them.
	for _, tc := range []struct{ body, want string }{
		{`{"dataset":"mhd","field":"velocity","bins":2000000000,"width":1}`, "exceed"},
		{`{"dataset":"mhd","field":"velocity","bins":4,"width":1,"fdOrder":3}`, "finite-difference order"},
		{`{"dataset":"mhd","field":"velocity","bins":4,"width":-1}`, "width must be positive"},
		{`{"dataset":"mhd","field":"velocity","bins":4,"width":1e999}`, "bad request body"},
	} {
		resp, err := http.Post(baseURL(clients[0])+PathPDF, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e ErrorResponse
		derr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || derr != nil || !strings.Contains(e.Error, tc.want) {
			t.Errorf("%s: HTTP %d, error %q (%v), want a 400 about %q", tc.body, resp.StatusCode, e.Error, derr, tc.want)
		}
	}
	if _, err := clients[0].GetTopK(context.Background(), nil, query.TopK{Dataset: "mhd", Field: derived.Velocity, K: 3, FDOrder: 7}); err == nil || faulttol.Transient(err) {
		t.Errorf("top-k at FD order 7: %v, want a permanent error", err)
	}
	// The node still answers, also a width whose bin quotient no int holds.
	res, err := clients[0].GetPDF(context.Background(), nil, query.PDF{Dataset: "mhd", Field: derived.Velocity, Bins: 4, Width: 1e-300})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range res.Counts {
		total += c
	}
	if total != 16*16*16 {
		t.Errorf("PDF counts %v sum to %d, want %d", res.Counts, total, 16*16*16)
	}
}

// streamedBody streams n bytes, an unterminated JSON string, without
// holding them.
type streamedBody struct{ n, sent int }

func (b *streamedBody) Read(p []byte) (int, error) {
	if b.sent == b.n {
		return 0, io.EOF
	}
	k := min(len(p), b.n-b.sent)
	for i := range p[:k] {
		p[i] = 'a'
	}
	if b.sent == 0 {
		p[0] = '"'
	}
	b.sent += k
	return k, nil
}

// TestOversizedRequestBodyRejected streams a request body one byte over
// the cap: each encoding answers a typed permanent bad request, and the
// node still serves a normal query after.
func TestOversizedRequestBodyRejected(t *testing.T) {
	clients, _ := startNodes(t, 1)
	for _, cd := range []codec{jsonCodec{}, frameCodec{}} {
		req, err := http.NewRequest(http.MethodPost, baseURL(clients[0])+PathThreshold, &streamedBody{n: maxRequestBody + 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, frames := cd.(frameCodec); frames {
			req.Header.Set("Accept", binproto.MediaType)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, err = cd.decode(PathThreshold, resp.StatusCode, resp.Body)
		resp.Body.Close()
		if err == nil || faulttol.Transient(err) || !strings.Contains(err.Error(), "request body too large") {
			t.Errorf("%T: HTTP %d, error %v; want a permanent bad request about the body size", cd, resp.StatusCode, err)
		}
		if _, frames := cd.(frameCodec); !frames && resp.StatusCode != http.StatusBadRequest {
			t.Errorf("JSON: HTTP %d, want 400", resp.StatusCode)
		}
	}
	res, err := clients[0].GetThreshold(context.Background(), nil, wireChaosQuery())
	if err != nil || len(res.Points) == 0 {
		t.Fatalf("normal query after an oversized body: %v", err)
	}
}

// cutBodies forwards every request with its body cut in half — a request
// that stops mid-JSON — and counts the requests it sent.
type cutBodies struct{ sent atomic.Int32 }

func (c *cutBodies) RoundTrip(r *http.Request) (*http.Response, error) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, err
	}
	_ = r.Body.Close()
	r = r.Clone(r.Context())
	r.Body, r.ContentLength = io.NopCloser(bytes.NewReader(body[:len(body)/2])), int64(len(body)/2)
	c.sent.Add(1)
	return http.DefaultTransport.RoundTrip(r)
}

// A body cut mid-JSON reads as io.ErrUnexpectedEOF at the server, yet it is
// the request's fault: the answer is a permanent bad request (HTTP 400 or
// a permanent error frame), so a retrying caller sends it exactly once.
func TestMalformedBodySentOnce(t *testing.T) {
	clients, _ := startNodes(t, 1)
	retry := faulttol.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	for _, proto := range []Proto{ProtoJSON, ProtoFrame} {
		rt := &cutBodies{}
		cli := NewClient(baseURL(clients[0]), WithProto(proto), WithTransport(rt))
		err := retry.Do(context.Background(), func(ctx context.Context) error {
			_, err := cli.GetThreshold(ctx, nil, wireChaosQuery())
			return err
		})
		if err == nil || faulttol.Transient(err) || !strings.Contains(err.Error(), "bad request body") {
			t.Errorf("%s: error %v; want a permanent bad request body", proto, err)
		}
		var se *StatusError
		if proto == ProtoJSON && (!errors.As(err, &se) || se.Status != http.StatusBadRequest) {
			t.Errorf("JSON: error %v, want HTTP 400", err)
		}
		if n := rt.sent.Load(); n != 1 {
			t.Errorf("%s: the malformed request was sent %d times, want once", proto, n)
		}
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
