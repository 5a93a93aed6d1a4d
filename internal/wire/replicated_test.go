package wire

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/faultinject"
	"github.com/turbdb/turbdb/internal/mediator"
	"github.com/turbdb/turbdb/internal/membership"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/node"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/store"
	"github.com/turbdb/turbdb/internal/synth"
)

// TestScanRequestRoundTrip pins the wire form of replica re-routing: a
// query's scan restriction survives encode → decode → ToQuery for all
// three query types, and an unrestricted request stays byte-identical to
// the pre-replication wire format (no "scan" key).
func TestScanRequestRoundTrip(t *testing.T) {
	scan := []morton.Range{{Lo: 4, Hi: 8}, {Lo: 12, Hi: 16}}

	tq := query.Threshold{Dataset: "mhd", Field: derived.Current, Threshold: 1, Scan: scan}
	data, err := json.Marshal(ThresholdRequestFor(tq))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"scan":[{"lo":4,"hi":8},{"lo":12,"hi":16}]`) {
		t.Fatalf("threshold request %s does not carry the scan ranges", data)
	}
	var tr ThresholdRequest
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	if got := tr.ToQuery(); !reflect.DeepEqual(got, tq) {
		t.Fatalf("threshold round trip = %+v, want %+v", got, tq)
	}

	pq := query.PDF{Dataset: "mhd", Field: derived.Current, Bins: 8, Width: 1, Scan: scan}
	data, err = json.Marshal(PDFRequestFor(pq))
	if err != nil {
		t.Fatal(err)
	}
	var pr PDFRequest
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	if got := pr.ToQuery(); !reflect.DeepEqual(got, pq) {
		t.Fatalf("pdf round trip = %+v, want %+v", got, pq)
	}

	kq := query.TopK{Dataset: "mhd", Field: derived.Current, K: 5, Scan: scan}
	data, err = json.Marshal(TopKRequestFor(kq))
	if err != nil {
		t.Fatal(err)
	}
	var kr TopKRequest
	if err := json.Unmarshal(data, &kr); err != nil {
		t.Fatal(err)
	}
	if got := kr.ToQuery(); !reflect.DeepEqual(got, kq) {
		t.Fatalf("topk round trip = %+v, want %+v", got, kq)
	}

	// Unrestricted requests must not grow a scan key: replica-unaware
	// deployments keep their exact request bytes.
	plain, err := json.Marshal(ThresholdRequestFor(query.Threshold{Dataset: "mhd", Field: derived.Current, Threshold: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(plain), "scan") {
		t.Fatalf("unrestricted request %s carries a scan key", plain)
	}
}

// startReplicatedNodes is startNodes with a k=2 ring layout: node i holds
// its primary range plus a replica of node (i+1)'s, adopted before ingest
// so both are populated.
func startReplicatedNodes(t *testing.T, nNodes int, opts ...ServerOption) ([]*Client, []morton.Range) {
	t.Helper()
	gen, err := synth.New(synth.Params{N: 16, Seed: 21, Kind: synth.MHD})
	if err != nil {
		t.Fatal(err)
	}
	g := gen.Grid()
	ranges := g.AtomRange().Split(nNodes, 1)
	clients := make([]*Client, nNodes)
	nodes := make([]*node.Node, nNodes)
	for i := 0; i < nNodes; i++ {
		st, err := store.New(store.Config{Grid: g, Owned: ranges[i]})
		if err != nil {
			t.Fatal(err)
		}
		st.AdoptRange(ranges[(i+1)%nNodes])
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
		srv := httptest.NewServer(NewNodeServer(nodes[i], opts...).Handler())
		t.Cleanup(srv.Close)
		clients[i] = NewClient(srv.URL)
	}
	// Halo exchange over HTTP, replica-aware: a dead primary's halo atoms
	// come from the replica holder.
	for i, n := range nodes {
		n.SetPeers(NewPeerSet(clients, i))
	}
	return clients, ranges
}

// TestInfoHeldRoundTrip: a replicated node advertises its held ranges via
// /info and Describe surfaces them; an unreplicated node's /info body does
// not grow a held key and Describe falls back to [Owned].
func TestInfoHeldRoundTrip(t *testing.T) {
	ctx := context.Background()
	repl, ranges := startReplicatedNodes(t, 3)
	desc, err := repl[0].Describe(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := []morton.Range{ranges[0], ranges[1]}
	if !reflect.DeepEqual(desc.Held, want) {
		t.Fatalf("replicated Held = %v, want %v", desc.Held, want)
	}
	held, err := repl[0].Held(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(held, want) {
		t.Fatalf("Held() = %v, want %v", held, want)
	}

	plain, _ := startNodes(t, 2)
	info, err := plain[0].Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Held != nil {
		t.Fatalf("unreplicated /info advertises held ranges: %v", info.Held)
	}
	desc, err = plain[0].Describe(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(desc.Held, []morton.Range{desc.Owned}) {
		t.Fatalf("unreplicated Held = %v, want [%v]", desc.Held, desc.Owned)
	}
}

// TestPeerSetFailoverToReplica kills one peer's atom path: a halo fetch
// for atoms it primarily holds fails over to the replica holder instead of
// failing the query — over the frame halo hop of default servers and the
// JSON fallback of JSON-only ones alike, with byte-identical blobs. A peer
// dead on every path, /info included, holds nothing and is routed around
// the same way.
func TestPeerSetFailoverToReplica(t *testing.T) {
	failover := func(match string, opts ...ServerOption) map[morton.Code][]byte {
		clients, ranges := startReplicatedNodes(t, 3, opts...)
		// Node 1 is dead on the matched paths; node 0 replicates node 1's range.
		plan := faultinject.NewPlan(7, &faultinject.Rule{Match: match, Mode: faultinject.ModeError})
		clients[1] = NewClient(baseURL(clients[1]), WithTransport(faultinject.NewTransport(nil, plan)))
		ps := NewPeerSet(clients, 2)

		codes := []morton.Code{ranges[1].Lo, ranges[1].Lo + 1}
		blobs, err := ps.FetchAtoms(context.Background(), nil, "velocity", 0, codes)
		if err != nil {
			t.Fatalf("fetch did not fail over to the replica holder: %v", err)
		}
		for _, c := range codes {
			if len(blobs[c]) == 0 {
				t.Fatalf("atom %v missing from failover fetch", c)
			}
		}
		if plan.Fired() == 0 {
			t.Fatal("plan never fired: the test did not exercise the dead primary")
		}

		// Both holders of range 1 dead (nodes 0 and 1) → the fetch must fail
		// and name the unavailable atom.
		clients[0] = NewClient(baseURL(clients[0]), WithTransport(faultinject.NewTransport(nil, plan)))
		ps = NewPeerSet(clients, 2)
		_, err = ps.FetchAtoms(context.Background(), nil, "velocity", 0, codes)
		if err == nil {
			t.Fatal("fetch succeeded with every holder down")
		}
		if !strings.Contains(err.Error(), "unavailable on every replica peer") {
			t.Fatalf("err = %v, want every-replica-down failure", err)
		}
		return blobs
	}
	framed := failover(PathAtoms)
	if fallback := failover(PathAtoms, WithJSONOnly()); !reflect.DeepEqual(framed, fallback) {
		t.Error("the frame and the JSON halo hop failed over to different blobs")
	}
	if dead := failover(""); !reflect.DeepEqual(framed, dead) {
		t.Error("a peer dead on every path failed over to different blobs")
	}
}

// TestWireReplicatedMediatorFailover runs the full HTTP stack the daemons
// assemble: node services advertising replica holdings, a mediator whose
// topology is discovered from /info, and a primary whose query path dies.
// The failover re-route (a scan-restricted request over the wire) must
// keep the answer complete and identical to the healthy cluster's.
func TestWireReplicatedMediatorFailover(t *testing.T) {
	clients, ranges := startReplicatedNodes(t, 3)
	healthy := wireMediator(t, clients, false)
	ctx := context.Background()
	want, _, err := healthy.Threshold(ctx, nil, wireChaosQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("reference query returned nothing")
	}

	// Discover the topology exactly as turbdb-mediator -replicas does: range
	// i is node i's primary, owned by i plus every node whose held ranges
	// cover it (ring layout → node i-1).
	topo := mediator.Topology{Version: 1, Ranges: ranges, Owners: make([][]int, len(ranges))}
	for i := range ranges {
		owners := []int{i}
		for j, c := range clients {
			if j == i {
				continue
			}
			held, err := c.Held(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range held {
				if h.Lo <= ranges[i].Lo && ranges[i].Hi <= h.Hi {
					owners = append(owners, j)
					break
				}
			}
		}
		if len(owners) != 2 {
			t.Fatalf("range %d has owners %v, want 2 in the k=2 ring", i, owners)
		}
		topo.Owners[i] = owners
	}

	// Node 1's query paths die; management (/info) stays up for assembly.
	plan := faultinject.NewPlan(7,
		&faultinject.Rule{Match: PathThreshold, Mode: faultinject.ModeError})
	mcs := make([]mediator.NodeClient, len(clients))
	for i, c := range clients {
		mcs[i] = c
	}
	mcs[1] = NewClient(baseURL(clients[1]), WithTransport(faultinject.NewTransport(nil, plan)))
	m, err := mediator.New(mediator.Config{
		Nodes: mcs, AllowPartial: true, Retry: fastRetryPolicy(),
		Topology: &topo,
		Members:  membership.NewTable(0, 1, 2),
	})
	if err != nil {
		t.Fatal(err)
	}

	pts, stats, err := m.Threshold(ctx, nil, wireChaosQuery())
	if err != nil {
		t.Fatalf("replicated wire mediator failed despite a live replica: %v", err)
	}
	if stats.Coverage != 1 || stats.Partial() {
		t.Fatalf("Coverage=%v Failures=%+v, want a complete answer", stats.Coverage, stats.Failures)
	}
	if stats.Reroutes == 0 {
		t.Error("node 1 died but no range was rerouted")
	}
	if !reflect.DeepEqual(pts, want) {
		t.Fatalf("failover answer differs from the healthy cluster's (%d vs %d points)", len(pts), len(want))
	}
}
