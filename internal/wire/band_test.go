package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/turbdb/turbdb/internal/cluster"
	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/fieldexpr"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/node"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sim"
	"github.com/turbdb/turbdb/internal/store"
	"github.com/turbdb/turbdb/internal/synth"
)

// haloTally is a node.PeerFetcher that counts the blobs and bytes its
// inner fetcher hands over.
type haloTally struct {
	inner        node.PeerFetcher
	blobs, bytes *atomic.Int64
}

func (h haloTally) FetchAtoms(ctx context.Context, p *sim.Proc, rawField string, step int, codes []morton.Code) (map[morton.Code][]byte, error) {
	blobs, err := h.inner.FetchAtoms(ctx, p, rawField, step, codes)
	for _, b := range blobs {
		h.blobs.Add(1)
		h.bytes.Add(int64(len(b)))
	}
	return blobs, err
}

// ignoreBoxes is a node service from before halo bands: it drops the boxes
// of every /atoms request, so the node answers with whole atoms.
func ignoreBoxes(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == PathAtoms {
			var req map[string]json.RawMessage
			if err := json.NewDecoder(r.Body).Decode(&req); err == nil {
				delete(req, "boxes")
				body, _ := json.Marshal(req) //lint:allow droppederr a map of raw messages always marshals
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
		}
		h.ServeHTTP(w, r)
	})
}

// The HTTP halo hop ships bands, not atoms. A 4-node loopback cluster
// whose halos cross HTTP answers every query bit-identically to an
// in-process twin whose peers hand over whole atoms, with the same
// AtomsRead, HaloAtoms and PointsExamined: vorticity at orders 2–8 and a
// two-raw expression field, aligned and clipping boxes, threshold, PDF and
// top-k over a cold and then a warm synopsis, unreplicated and at k = 2
// with each node also scanning the replica range it holds. A node service
// that ignores the boxes still serves the banding client, with whole atoms.
func TestHaloBandDifferential(t *testing.T) {
	gen, err := synth.New(synth.Params{N: 32, Seed: 15, Kind: synth.MHD})
	if err != nil {
		t.Fatal(err)
	}
	reg := derived.NewRegistry()
	xh, err := fieldexpr.Compile("xhelicity", "dot(velocity, curl(magnetic))", map[string]int{derived.Velocity: 3, derived.Magnetic: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(xh); err != nil {
		t.Fatal(err)
	}
	g := gen.Grid()
	whole := g.PointsPerAtom() * 3 * 4
	boxes := []grid.Box{
		g.Domain(),
		{Lo: grid.Point{X: 8, Y: 0, Z: 16}, Hi: grid.Point{X: 24, Y: 16, Z: 32}},
		{Lo: grid.Point{X: 3, Y: 5, Z: 2}, Hi: grid.Point{X: 29, Y: 27, Z: 30}},
	}
	type class struct {
		field string
		order int
	}
	classes := []class{{derived.Vorticity, 2}, {derived.Vorticity, 4}, {derived.Vorticity, 6}, {derived.Vorticity, 8}, {xh.Name, 4}}

	for _, setup := range []struct {
		name        string
		replication int
		legacy      bool
	}{{"bands", 1, false}, {"bands k=2", 2, false}, {"server ignores boxes", 1, true}} {
		t.Run(setup.name, func(t *testing.T) {
			cfg := cluster.Config{Nodes: 4, Processes: 2, Replication: setup.replication, Registry: reg}
			banded, err := cluster.Build(gen, cfg)
			if err != nil {
				t.Fatal(err)
			}
			twin, err := cluster.Build(gen, cfg)
			if err != nil {
				t.Fatal(err)
			}
			clients := make([]*Client, len(banded.Nodes()))
			for i, n := range banded.Nodes() {
				var h http.Handler = NewNodeServer(n).Handler()
				if setup.legacy {
					h = ignoreBoxes(h)
				}
				srv := httptest.NewServer(h)
				t.Cleanup(srv.Close)
				clients[i] = NewClient(srv.URL)
			}
			var blobs, shipped atomic.Int64
			for i, n := range banded.Nodes() {
				n.SetPeers(haloTally{inner: NewPeerSet(clients, i), blobs: &blobs, bytes: &shipped})
			}

			ctx := context.Background()
			for _, c := range classes {
				for i := range clients {
					// A cold synopsis for the first round, a warm one for the second.
					if err := clients[i].DropCacheEntry(ctx, c.field, c.order, 0); err != nil {
						t.Fatal(err)
					}
					if err := twin.Nodes()[i].DropCacheEntry(ctx, c.field, c.order, 0); err != nil {
						t.Fatal(err)
					}
				}
				for round := 0; round < 2; round++ {
					for _, box := range boxes {
						for i, cli := range clients {
							tn := twin.Nodes()[i]
							routes := [][]morton.Range{nil}
							if setup.replication > 1 {
								routes = append(routes, tn.Held()[1:])
							}
							for _, scan := range routes {
								where := fmt.Sprintf("%s o%d round %d %v node %d scan %v", c.field, c.order, round, box, i, scan)
								bandDiff(t, where, cli, tn, c.field, c.order, box, scan)
							}
						}
					}
				}
			}
			n := blobs.Load()
			switch got := shipped.Load(); {
			case n == 0:
				t.Fatal("no halo atom crossed HTTP")
			case setup.legacy && got != n*int64(whole):
				t.Fatalf("a server that ignores boxes shipped %d bytes for %d atoms of %d", got, n, whole)
			case !setup.legacy && got >= n*int64(whole):
				t.Fatalf("bands shipped %d bytes for %d atoms of %d", got, n, whole)
			default:
				t.Logf("%d halo blobs, %d bytes (%d as whole atoms)", n, got, n*int64(whole))
			}
		})
	}
}

// bandDiff runs one top-k, threshold and PDF on a node over HTTP and on its
// in-process twin and compares answers and read counts.
func bandDiff(t *testing.T, where string, cli *Client, tn *node.Node, fieldName string, order int, box grid.Box, scan []morton.Range) {
	t.Helper()
	ctx := context.Background()
	ds := tn.Dataset()
	sameCounts := func(kind string, got, want node.Breakdown) {
		t.Helper()
		if got.AtomsRead != want.AtomsRead || got.HaloAtoms != want.HaloAtoms || got.PointsExamined != want.PointsExamined {
			t.Fatalf("%s %s: read/halo/examined %d/%d/%d, twin %d/%d/%d", where, kind,
				got.AtomsRead, got.HaloAtoms, got.PointsExamined, want.AtomsRead, want.HaloAtoms, want.PointsExamined)
		}
	}
	tk := query.TopK{Dataset: ds, Field: fieldName, FDOrder: order, Box: box, Scan: scan, K: 40}
	gk, err := cli.GetTopK(ctx, nil, tk)
	if err != nil {
		t.Fatalf("%s top-k: %v", where, err)
	}
	wk, err := tn.GetTopK(ctx, nil, tk)
	if err != nil {
		t.Fatalf("%s top-k: %v", where, err)
	}
	samePoints(t, where+" top-k", gk.Points, wk.Points)
	sameCounts("top-k", gk.Breakdown, wk.Breakdown)

	th := query.Threshold{Dataset: ds, Field: fieldName, FDOrder: order, Box: box, Scan: scan, Limit: 1 << 20}
	if len(wk.Points) > 0 {
		th.Threshold = float64(wk.Points[len(wk.Points)-1].Value) / 2
	}
	gt, err := cli.GetThreshold(ctx, nil, th)
	if err != nil {
		t.Fatalf("%s threshold: %v", where, err)
	}
	wt, err := tn.GetThreshold(ctx, nil, th)
	if err != nil {
		t.Fatalf("%s threshold: %v", where, err)
	}
	samePoints(t, where+" threshold", gt.Points, wt.Points)
	sameCounts("threshold", gt.Breakdown, wt.Breakdown)

	pq := query.PDF{Dataset: ds, Field: fieldName, FDOrder: order, Box: box, Scan: scan, Bins: 16, Width: th.Threshold/4 + 1e-3}
	gp, err := cli.GetPDF(ctx, nil, pq)
	if err != nil {
		t.Fatalf("%s pdf: %v", where, err)
	}
	wp, err := tn.GetPDF(ctx, nil, pq)
	if err != nil {
		t.Fatalf("%s pdf: %v", where, err)
	}
	for b := range wp.Counts {
		if gp.Counts[b] != wp.Counts[b] {
			t.Fatalf("%s pdf: bin %d holds %d, twin %d", where, b, gp.Counts[b], wp.Counts[b])
		}
	}
	sameCounts("pdf", gp.Breakdown, wp.Breakdown)
}

// /atoms rejects malformed boxes with a permanent 400 before it reads a
// blob: a wrong length, an empty, inverted or out-of-atom box, and boxes
// on a grid whose atoms are too large for them — where the client sends
// none.
func TestAtomsRejectsHostileBoxes(t *testing.T) {
	clients, gen := startNodes(t, 1)
	owned, err := clients[0].Owned(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	side := gen.Grid().AtomSide
	s := byte(side)
	codes := []uint64{uint64(owned.Lo), uint64(owned.Lo) + 1}
	valid := []byte{0, 0, 0, s, s, s, 1, 2, 3, 4, 5, 6}
	post := func(req AtomsRequest) (*http.Response, []byte) {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(baseURL(clients[0])+PathAtoms, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, out
	}
	if resp, body := post(AtomsRequest{Field: derived.Velocity, Codes: codes, Boxes: valid}); resp.StatusCode != http.StatusOK {
		t.Fatalf("valid boxes: HTTP %d: %s", resp.StatusCode, body)
	}
	for _, tc := range []struct {
		name  string
		boxes []byte
	}{
		{"short", valid[:11]},
		{"long", append(append([]byte(nil), valid...), 0)},
		{"one box for two atoms", valid[:6]},
		{"empty box", []byte{0, 0, 0, s, s, s, 2, 2, 2, 2, 3, 3}},
		{"inverted box", []byte{0, 0, 0, s, s, s, 3, 1, 1, 1, 2, 2}},
		{"out of the atom", []byte{0, 0, 0, s, s, s + 1, 0, 0, 0, 1, 1, 1}},
		{"beyond any atom", []byte{0, 0, 0, s, s, s, 0, 0, 0, 255, 255, 255}},
	} {
		resp, body := post(AtomsRequest{Field: derived.Velocity, Codes: codes, Boxes: tc.boxes})
		var e ErrorResponse
		if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(body, &e) != nil || !strings.Contains(e.Error, "box") {
			t.Errorf("%s: HTTP %d (%d bytes), want a 400 about the boxes", tc.name, resp.StatusCode, len(body))
		}
		// The halo hop itself asks for frames: the same failure, typed permanent.
		_, err := clients[0].soloRPC(context.Background(), PathAtoms, &AtomsRequest{Field: derived.Velocity, Codes: codes, Boxes: tc.boxes}, new(string))
		if err == nil || faulttol.Transient(err) {
			t.Errorf("%s: framed halo hop: %v, want a permanent error", tc.name, err)
		}
	}

	// Atoms of side 256 have box corners no byte holds: the node refuses
	// boxes, and the client does not send them.
	big, err := grid.New(256, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.New(store.Config{Grid: big, Owned: big.AtomRange()})
	if err != nil {
		t.Fatal(err)
	}
	n, err := node.New(node.Config{Dataset: "big", Store: st})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewNodeServer(n).Handler())
	t.Cleanup(srv.Close)
	body, err := json.Marshal(AtomsRequest{Field: derived.Velocity, Codes: []uint64{0}, Boxes: []byte{0, 0, 0, 1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+PathAtoms, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("boxes for atoms of side 256: HTTP %d, want 400", resp.StatusCode)
	}
	var sent atomic.Value
	rec := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body) //lint:allow droppederr the recorder only looks at what arrived
		sent.Store(string(b))
		http.Error(w, "recorded", http.StatusBadRequest)
	}))
	t.Cleanup(rec.Close)
	ctx := node.WithHaloParts(context.Background(), 256, map[morton.Code]grid.Box{0: {Hi: grid.Point{X: 1, Y: 1, Z: 1}}})
	_, _ = NewClient(rec.URL).FetchAtoms(ctx, nil, derived.Velocity, 0, []morton.Code{0}) //lint:allow droppederr the recorder always fails the call
	if got, _ := sent.Load().(string); got == "" || strings.Contains(got, "boxes") {
		t.Errorf("a client on atoms of side 256 sent %q", got)
	}
}
