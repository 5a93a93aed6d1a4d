package wire

// Differential coverage for the binary frame protocol: every cell of the
// encoding matrix (JSON/frame client × frame-capable/JSON-only server, on
// both the user→mediator and mediator→node hops) must produce answers
// bit-for-bit identical to the JSON↔JSON baseline — points compared by
// Float32bits, plus the coverage/failure annotations and the typed error
// vocabulary. The matrix runs over the same live HTTP cluster the JSON
// tests use, so negotiation, fallback, chunking and the error frames are
// all exercised end to end.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/faultinject"
	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/mediator"
	"github.com/turbdb/turbdb/internal/membership"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/obs"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sched"
	"github.com/turbdb/turbdb/internal/wire/binproto"
)

// protoClients re-dials each node service with the given response protocol.
func protoClients(clients []*Client, p Proto) []*Client {
	out := make([]*Client, len(clients))
	for i, c := range clients {
		out[i] = NewClient(baseURL(c), WithProto(p))
	}
	return out
}

// samePoints asserts two result sets are identical: same codes in the same
// order and bit-identical float32 values.
func samePoints(t *testing.T, label string, got, want []query.ResultPoint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Code != want[i].Code ||
			math.Float32bits(got[i].Value) != math.Float32bits(want[i].Value) {
			t.Fatalf("%s: point %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// TestDifferentialEncodingMatrix runs threshold, PDF and top-k through
// every client/server encoding pairing on both hops and checks each cell
// against the JSON↔JSON baseline.
func TestDifferentialEncodingMatrix(t *testing.T) {
	ctx := context.Background()
	nodes, _ := startNodes(t, 2)
	tq := wireChaosQuery()
	pq := query.PDF{Dataset: "mhd", Field: derived.Magnetic, Bins: 4, Width: 1}
	kq := query.TopK{Dataset: "mhd", Field: derived.Current, K: 5}

	// One mediator service per node-hop protocol × server policy.
	serve := func(nodeProto Proto, opts ...ServerOption) string {
		m := wireMediator(t, protoClients(nodes, nodeProto), false)
		srv := httptest.NewServer(NewMediatorServer(m, opts...).Handler())
		t.Cleanup(srv.Close)
		return srv.URL
	}
	jsonNodeURL := serve(ProtoJSON)
	frameNodeURL := serve(ProtoFrame)
	jsonOnlyURL := serve(ProtoJSON, WithJSONOnly())

	// Warm the node caches once so FromCache and the breakdown counters are
	// deterministic across every cell.
	warm := NewClient(jsonNodeURL)
	for _, warmup := range []func() error{
		func() error { _, _, err := warm.ThresholdStats(ctx, tq, false); return err },
		func() error { _, err := warm.GetPDF(ctx, nil, pq); return err },
		func() error { _, err := warm.GetTopK(ctx, nil, kq); return err },
	} {
		if err := warmup(); err != nil {
			t.Fatal(err)
		}
	}

	basePts, baseResp, err := warm.ThresholdStats(ctx, tq, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(basePts) == 0 {
		t.Fatal("baseline threshold returned nothing")
	}
	basePDF, err := warm.GetPDF(ctx, nil, pq)
	if err != nil {
		t.Fatal(err)
	}
	baseTop, err := warm.GetTopK(ctx, nil, kq)
	if err != nil {
		t.Fatal(err)
	}

	cells := []struct {
		name string
		user Proto
		url  string
	}{
		{"frameUser_jsonNodes", ProtoFrame, jsonNodeURL},
		{"jsonUser_frameNodes", ProtoJSON, frameNodeURL},
		{"frameUser_frameNodes", ProtoFrame, frameNodeURL},
		{"frameUser_jsonOnlyServer", ProtoFrame, jsonOnlyURL},
	}
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			user := NewClient(cell.url, WithProto(cell.user))

			pts, resp, err := user.ThresholdStats(ctx, tq, false)
			if err != nil {
				t.Fatal(err)
			}
			samePoints(t, "threshold", pts, basePts)
			if resp.Coverage != baseResp.Coverage || resp.Failed != baseResp.Failed ||
				resp.FromCache != baseResp.FromCache {
				t.Errorf("annotations (cov=%v failed=%d cache=%v) differ from baseline (cov=%v failed=%d cache=%v)",
					resp.Coverage, resp.Failed, resp.FromCache,
					baseResp.Coverage, baseResp.Failed, baseResp.FromCache)
			}
			// The breakdown's integer counters are deterministic on a warm
			// cache; the millisecond floats are wall-clock and excluded.
			if resp.Breakdown.AtomsRead != baseResp.Breakdown.AtomsRead ||
				resp.Breakdown.PointsExamined != baseResp.Breakdown.PointsExamined ||
				resp.Breakdown.AtomsSkipped != baseResp.Breakdown.AtomsSkipped ||
				resp.Breakdown.HaloAtoms != baseResp.Breakdown.HaloAtoms {
				t.Errorf("breakdown counters differ from baseline: %+v vs %+v",
					resp.Breakdown, baseResp.Breakdown)
			}

			pdf, err := user.GetPDF(ctx, nil, pq)
			if err != nil {
				t.Fatal(err)
			}
			if len(pdf.Counts) != len(basePDF.Counts) {
				t.Fatalf("pdf: %d bins, want %d", len(pdf.Counts), len(basePDF.Counts))
			}
			for i := range basePDF.Counts {
				if pdf.Counts[i] != basePDF.Counts[i] {
					t.Fatalf("pdf bin %d = %d, want %d", i, pdf.Counts[i], basePDF.Counts[i])
				}
			}

			top, err := user.GetTopK(ctx, nil, kq)
			if err != nil {
				t.Fatal(err)
			}
			samePoints(t, "topk", top.Points, baseTop.Points)
		})
	}
}

// ctRecorder is a round tripper that notes, per request path, the
// Content-Type of every response: what encoding a hop really used.
type ctRecorder struct {
	mu   sync.Mutex
	seen map[string][]string
}

func (r *ctRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := sharedTransport.RoundTrip(req)
	if err == nil {
		r.mu.Lock()
		r.seen[req.URL.Path] = append(r.seen[req.URL.Path], resp.Header.Get("Content-Type"))
		r.mu.Unlock()
	}
	return resp, err
}

// recordedClients re-dials each node service with protocol p through rec.
func recordedClients(clients []*Client, p Proto) ([]*Client, *ctRecorder) {
	rec := &ctRecorder{seen: make(map[string][]string)}
	out := make([]*Client, len(clients))
	for i, c := range clients {
		out[i] = NewClient(baseURL(c), WithProto(p), WithTransport(rec))
	}
	return out, rec
}

// allFrames reports whether the recorder saw responses on path and every
// one was a frame stream.
func (r *ctRecorder) allFrames(path string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ct := range r.seen[path] {
		if !strings.HasPrefix(ct, binproto.MediaType) {
			return false
		}
	}
	return len(r.seen[path]) > 0
}

// spanForest renders a span tree as the sorted list of its root-to-span
// name paths: the shape of the tree without IDs or times.
func spanForest(spans []SpanDTO) []string {
	byID := make(map[uint64]SpanDTO, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	paths := make([]string, 0, len(spans))
	for _, s := range spans {
		path := s.Name
		for p, hops := s.Parent, 0; p != 0 && hops < len(spans); p, hops = byID[p].Parent, hops+1 {
			path = byID[p].Name + " > " + path
		}
		paths = append(paths, path)
	}
	sort.Strings(paths)
	return paths
}

// TestDifferentialTracedMatrix is the encoding matrix with tracing on: a
// user Trace=true on the first hop, TraceID joins on the second. Asking for
// a trace must not change the path it measures — frames stay frames — and
// every pairing must return the untraced JSON↔JSON baseline's points and
// the same span tree.
func TestDifferentialTracedMatrix(t *testing.T) {
	ctx := context.Background()
	nodes, _ := startNodes(t, 2)
	tq := wireChaosQuery()

	warm := NewClient(serveMediator(t, wireMediator(t, nodes, false)))
	basePts, baseResp, err := warm.ThresholdStats(ctx, tq, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(basePts) == 0 || baseResp.Trace != nil || baseResp.Spans != nil {
		t.Fatalf("untraced baseline: %d points, trace %v, spans %v", len(basePts), baseResp.Trace, baseResp.Spans)
	}

	var baseForest []string
	for _, cell := range []struct{ user, node Proto }{
		{ProtoJSON, ProtoJSON}, {ProtoFrame, ProtoJSON}, {ProtoJSON, ProtoFrame}, {ProtoFrame, ProtoFrame},
	} {
		t.Run(string(cell.user)+"User_"+string(cell.node)+"Nodes", func(t *testing.T) {
			ncs, nodeHop := recordedClients(nodes, cell.node)
			userHop := &ctRecorder{seen: make(map[string][]string)}
			user := NewClient(serveMediator(t, wireMediator(t, ncs, false)), WithProto(cell.user), WithTransport(userHop))

			pts, resp, err := user.ThresholdStats(ctx, tq, true)
			if err != nil {
				t.Fatal(err)
			}
			samePoints(t, "traced threshold", pts, basePts)
			if userHop.allFrames(PathThreshold) != (cell.user == ProtoFrame) || nodeHop.allFrames(PathThreshold) != (cell.node == ProtoFrame) {
				t.Errorf("tracing changed an encoding: user hop %v, node hop %v", userHop.seen, nodeHop.seen)
			}
			if resp.Trace == nil || resp.Trace.ID == "" {
				t.Fatalf("Trace=true returned no tree: %+v", resp.Trace)
			}
			forest := spanForest(resp.Trace.Spans)
			// Two hops deep: the node's stages under the mediator's RPC span,
			// the peer's halo service under the node's.
			joined := "threshold > node[0] > rpc:" + PathThreshold + " > threshold > scan_io > rpc:" + PathAtoms + " > serve_atoms"
			if i := sort.SearchStrings(forest, joined); i == len(forest) || forest[i] != joined {
				t.Errorf("remote spans not grafted under their RPC spans; tree:\n%s", strings.Join(forest, "\n"))
			}
			if baseForest == nil {
				baseForest = forest
			} else if !reflect.DeepEqual(forest, baseForest) {
				t.Errorf("span tree differs from the JSON↔JSON one:\n%s\nvs\n%s",
					strings.Join(forest, "\n"), strings.Join(baseForest, "\n"))
			}

			// PDF and top-k ride the same pipeline: traced, same answers.
			pq := query.PDF{Dataset: "mhd", Field: derived.Magnetic, Bins: 4, Width: 1}
			want, err := warm.GetPDF(ctx, nil, pq)
			if err != nil {
				t.Fatal(err)
			}
			tr := obs.NewTrace(obs.NewTraceID(), nil)
			got, err := user.GetPDF(obs.ContextWithTrace(ctx, tr), nil, pq)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Counts, want.Counts) {
				t.Errorf("traced pdf = %v, want %v", got.Counts, want.Counts)
			}
			if f := spanForest(SpansToDTO(tr.Spans())); len(f) < 2 || f[0] != "rpc:"+PathPDF {
				t.Errorf("the mediator's spans were not grafted under the user's RPC span: %v", f)
			}
		})
	}

	// The scheduler attaches a trace to every batch context, so every node
	// request it causes carries a TraceID: the node hop must still be frames
	// when the mediator was told frames.
	t.Run("sched_frameNodes", func(t *testing.T) {
		ncs, nodeHop := recordedClients(nodes, ProtoFrame)
		s, err := sched.New(wireMediator(t, ncs, false), sched.Config{BatchWindow: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		pts, _, err := s.Threshold(ctx, nil, tq)
		if err != nil {
			t.Fatal(err)
		}
		samePoints(t, "scheduled threshold", pts, basePts)
		if !nodeHop.allFrames(PathThreshold) {
			t.Errorf("node hop behind the scheduler did not ride frames: %v", nodeHop.seen)
		}
	})
}

// serveMediator serves m over httptest and returns the base URL.
func serveMediator(t *testing.T, m *mediator.Mediator, opts ...ServerOption) string {
	t.Helper()
	srv := httptest.NewServer(NewMediatorServer(m, opts...).Handler())
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestFrameNegotiationHeaders pins the negotiation contract at the HTTP
// level: frames when the client asks AND the server allows, traced or not;
// everything else answers JSON.
func TestFrameNegotiationHeaders(t *testing.T) {
	nodes, _ := startNodes(t, 1)
	m := wireMediator(t, protoClients(nodes, ProtoJSON), false)
	srv := httptest.NewServer(NewMediatorServer(m).Handler())
	t.Cleanup(srv.Close)
	jsonOnly := httptest.NewServer(NewMediatorServer(m, WithJSONOnly()).Handler())
	t.Cleanup(jsonOnly.Close)

	plain, err := json.Marshal(ThresholdRequestFor(wireChaosQuery()))
	if err != nil {
		t.Fatal(err)
	}
	tracedReq := ThresholdRequestFor(wireChaosQuery())
	tracedReq.Trace = true
	traced, err := json.Marshal(tracedReq)
	if err != nil {
		t.Fatal(err)
	}

	post := func(url string, body []byte, accept string) string {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, url+PathThreshold, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d", url, resp.StatusCode)
		}
		return resp.Header.Get("Content-Type")
	}

	if ct := post(srv.URL, plain, ""); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("no Accept header → Content-Type %q, want JSON", ct)
	}
	if ct := post(srv.URL, plain, binproto.MediaType); !strings.HasPrefix(ct, binproto.MediaType) {
		t.Errorf("frame Accept → Content-Type %q, want frames", ct)
	}
	if ct := post(jsonOnly.URL, plain, binproto.MediaType); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("JSON-only server ignored its policy: Content-Type %q", ct)
	}
	if ct := post(srv.URL, traced, binproto.MediaType); !strings.HasPrefix(ct, binproto.MediaType) {
		t.Errorf("traced request with frame Accept → Content-Type %q, want frames (a trace must not change the path it measures)", ct)
	}
}

// TestDifferentialPartialCoverage kills one node's query path and compares
// the AllowPartial answer across encodings: same surviving points, same
// sub-unit coverage, same failure count.
func TestDifferentialPartialCoverage(t *testing.T) {
	ctx := context.Background()
	run := func(p Proto) ([]query.ResultPoint, *ThresholdResponse) {
		plan := faultinject.NewPlan(7, &faultinject.Rule{Match: PathThreshold, Mode: faultinject.ModeError})
		nodes, _ := startNodes(t, 2)
		ncs := protoClients(nodes, p)
		ncs[1] = NewClient(baseURL(nodes[1]), WithProto(p),
			WithTransport(faultinject.NewTransport(nil, plan)))
		m := wireMediator(t, ncs, true)
		srv := httptest.NewServer(NewMediatorServer(m).Handler())
		t.Cleanup(srv.Close)
		user := NewClient(srv.URL, WithProto(p))
		pts, resp, err := user.ThresholdStats(ctx, wireChaosQuery(), false)
		if err != nil {
			t.Fatalf("proto %s: partial query failed: %v", p, err)
		}
		if plan.Fired() == 0 {
			t.Fatalf("proto %s: fault plan never fired", p)
		}
		return pts, resp
	}

	jsonPts, jsonResp := run(ProtoJSON)
	framePts, frameResp := run(ProtoFrame)

	samePoints(t, "partial answer", framePts, jsonPts)
	if len(framePts) == 0 {
		t.Error("no points from the surviving node")
	}
	if frameResp.Coverage != jsonResp.Coverage || frameResp.Coverage <= 0 || frameResp.Coverage >= 1 {
		t.Errorf("frame Coverage = %v, json Coverage = %v, want equal and in (0, 1)",
			frameResp.Coverage, jsonResp.Coverage)
	}
	if frameResp.Failed != 1 || jsonResp.Failed != 1 {
		t.Errorf("Failed = %d (frame) / %d (json), want 1 on both", frameResp.Failed, jsonResp.Failed)
	}
}

// TestDifferentialReplicatedFailover runs the k=2 kill-the-primary scenario
// with frame-proto node clients: the scan-restricted re-route rides the
// binary encoding and the answer must stay complete and identical to the
// healthy JSON cluster's.
func TestDifferentialReplicatedFailover(t *testing.T) {
	ctx := context.Background()
	clients, ranges := startReplicatedNodes(t, 3)
	want, _, err := wireMediator(t, clients, false).Threshold(ctx, nil, wireChaosQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("reference query returned nothing")
	}

	// k=2 ring topology: range i is owned by node i and its ring predecessor.
	topo := mediator.Topology{Version: 1, Ranges: ranges, Owners: make([][]int, len(ranges))}
	for i := range ranges {
		topo.Owners[i] = []int{i, (i - 1 + len(ranges)) % len(ranges)}
	}

	plan := faultinject.NewPlan(7, &faultinject.Rule{Match: PathThreshold, Mode: faultinject.ModeError})
	ncs := protoClients(clients, ProtoFrame)
	mcs := make([]mediator.NodeClient, len(ncs))
	for i, c := range ncs {
		mcs[i] = c
	}
	mcs[1] = NewClient(baseURL(clients[1]), WithProto(ProtoFrame),
		WithTransport(faultinject.NewTransport(nil, plan)))
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
		t.Fatalf("replicated frame mediator failed despite a live replica: %v", err)
	}
	if stats.Coverage != 1 || stats.Partial() {
		t.Fatalf("Coverage=%v Failures=%+v, want a complete failover answer", stats.Coverage, stats.Failures)
	}
	if stats.Reroutes == 0 {
		t.Error("primary died but no range was rerouted")
	}
	samePoints(t, "failover answer", pts, want)
}

// TestDifferentialBatchFrames drives the node's shared-scan batch endpoint
// over both encodings, including a rejected member, and compares the
// results member by member.
func TestDifferentialBatchFrames(t *testing.T) {
	ctx := context.Background()
	nodes, _ := startNodes(t, 1)
	qs := []query.Threshold{
		{Dataset: "mhd", Field: derived.Current, Threshold: 1.0},
		{Dataset: "mhd", Field: derived.Current, Threshold: 0, Limit: 10}, // rejected member
		{Dataset: "mhd", Field: derived.Current, Threshold: 2.5},
	}
	jc := nodes[0]
	fc := NewClient(baseURL(nodes[0]), WithProto(ProtoFrame))

	// Warm once so the cache annotations agree between the two runs.
	if _, err := jc.GetThresholdBatch(ctx, nil, qs); err != nil {
		t.Fatal(err)
	}
	jres, err := jc.GetThresholdBatch(ctx, nil, qs)
	if err != nil {
		t.Fatal(err)
	}
	fres, err := fc.GetThresholdBatch(ctx, nil, qs)
	if err != nil {
		t.Fatal(err)
	}

	if fres.AtomsScanned != jres.AtomsScanned {
		t.Errorf("AtomsScanned = %d over frames, %d over JSON", fres.AtomsScanned, jres.AtomsScanned)
	}
	for i := range qs {
		if (jres.Errs[i] == nil) != (fres.Errs[i] == nil) {
			t.Fatalf("member %d: json err=%v, frame err=%v", i, jres.Errs[i], fres.Errs[i])
		}
		if jres.Errs[i] != nil {
			var jm, fm *query.ErrTooManyPoints
			if !errors.As(jres.Errs[i], &jm) || !errors.As(fres.Errs[i], &fm) {
				t.Fatalf("member %d: rejection not typed on both paths: %v / %v", i, jres.Errs[i], fres.Errs[i])
			}
			if jm.Seen != fm.Seen || jm.Limit != fm.Limit {
				t.Errorf("member %d: rejection details differ: %+v vs %+v", i, jm, fm)
			}
			continue
		}
		jr, fr := jres.Results[i], fres.Results[i]
		samePoints(t, "batch member", fr.Points, jr.Points)
		if fr.FromCache != jr.FromCache || fr.Shared != jr.Shared || fr.ScansSaved != jr.ScansSaved {
			t.Errorf("member %d annotations differ: frame {cache=%v shared=%d saved=%d} json {cache=%v shared=%d saved=%d}",
				i, fr.FromCache, fr.Shared, fr.ScansSaved, jr.FromCache, jr.Shared, jr.ScansSaved)
		}
	}

	// A single-member all-rejected batch must stay a member error (End
	// frame Items=1), not collapse into a whole-request failure.
	solo, err := fc.GetThresholdBatch(ctx, nil, qs[1:2])
	if err != nil {
		t.Fatalf("single rejected member failed the whole batch: %v", err)
	}
	var tooMany *query.ErrTooManyPoints
	if !errors.As(solo.Errs[0], &tooMany) {
		t.Fatalf("solo member error = %v, want typed ErrTooManyPoints", solo.Errs[0])
	}
}

// TestFrameTypedErrors checks failures negotiated onto the frame encoding
// come back as the same typed domain errors the JSON path produces, with
// the server's retry class attached.
func TestFrameTypedErrors(t *testing.T) {
	ctx := context.Background()
	nodes, _ := startNodes(t, 1)
	fc := NewClient(baseURL(nodes[0]), WithProto(ProtoFrame))

	// threshold_too_low over frames: typed, sentinel-matching, detailed.
	_, err := fc.GetThreshold(ctx, nil, query.Threshold{
		Dataset: "mhd", Field: derived.Magnetic, Threshold: 0, Limit: 10,
	})
	var tooMany *query.ErrTooManyPoints
	if !errors.As(err, &tooMany) {
		t.Fatalf("err = %v, want typed ErrTooManyPoints", err)
	}
	if !errors.Is(err, query.ErrThresholdTooLow) {
		t.Error("typed error lost over the frame encoding")
	}
	if tooMany.Limit != 10 || tooMany.Seen <= 10 {
		t.Errorf("rejection details = %+v, want Limit 10 and Seen > 10", tooMany)
	}

	// over_quota over frames: typed, transient, detail-preserving.
	shed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serverConfig{}.codecFor(r).encode(w, PathThreshold, nil, &sched.ErrOverQuota{Tenant: "batch", Queued: 64, Limit: 64})
	}))
	t.Cleanup(shed.Close)
	sc := NewClient(shed.URL, WithProto(ProtoFrame))
	_, err = sc.exchange(ctx, PathThreshold, ThresholdRequest{})
	var oq *sched.ErrOverQuota
	if !errors.As(err, &oq) {
		t.Fatalf("err = %v, want typed ErrOverQuota", err)
	}
	if oq.Tenant != "batch" || oq.Queued != 64 || oq.Limit != 64 {
		t.Errorf("shed details lost over frames: %+v", oq)
	}
	if !faulttol.Transient(err) {
		t.Error("over-quota shed must classify transient over frames")
	}

	// Errors without a dedicated kind keep the server's retry class on both
	// encodings: explicitly in the error frame, as 503 vs 400 over JSON. A
	// node's own transient failure (a halo peer down on every replica) must
	// not reach a JSON mediator as permanent.
	for _, tc := range []struct {
		name      string
		err       error
		transient bool
	}{
		{"transient", faulttol.Transientf("node melting"), true},
		{"wrapped transient", fmt.Errorf("wire: halo atom 7 unavailable on every replica peer: %w", faulttol.Transientf("peer down")), true},
		{"permanent", errors.New("bad geometry"), false},
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			serverConfig{}.codecFor(r).encode(w, PathThreshold, nil, tc.err)
		}))
		for _, p := range []Proto{ProtoFrame, ProtoJSON} {
			_, err := NewClient(srv.URL, WithProto(p)).exchange(ctx, PathThreshold, ThresholdRequest{})
			var re *RemoteError
			var se *StatusError
			if p == ProtoFrame && !errors.As(err, &re) {
				t.Fatalf("%s/%s: err = %v, want RemoteError", tc.name, p, err)
			}
			if p == ProtoJSON && !errors.As(err, &se) {
				t.Fatalf("%s/%s: err = %v, want StatusError", tc.name, p, err)
			}
			if faulttol.Transient(err) != tc.transient {
				t.Errorf("%s/%s: Transient() = %v, want %v (class must survive the wire)",
					tc.name, p, faulttol.Transient(err), tc.transient)
			}
		}
		srv.Close()
	}
}

// TestFrameStreamErrorClassification pins the decoder's retry taxonomy: a
// stream cut at a frame boundary (connection died) is transient, while a
// malformed stream (corruption, version skew) is permanent.
func TestFrameStreamErrorClassification(t *testing.T) {
	var cut bytes.Buffer
	bw := binproto.NewWriter(&cut)
	if err := bw.Points([]uint64{1, 2, 3}, []float32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// No stats or end frame: the stream just stops.
	_, err := frameCodec{}.decode(PathThreshold, http.StatusOK, &cut)
	if err == nil || !faulttol.Transient(err) {
		t.Errorf("truncated-at-boundary err = %v, want transient (retry reaches a healthy stream)", err)
	}

	_, err = frameCodec{}.decode(PathThreshold, http.StatusOK, strings.NewReader("not a frame stream"))
	var ferr *binproto.FormatError
	if !errors.As(err, &ferr) {
		t.Fatalf("malformed stream err = %v, want FormatError", err)
	}
	if faulttol.Transient(err) {
		t.Error("malformed stream classified transient; retrying corruption is useless")
	}
}

// TestFrameStreamRejectsMalformed pins the stream-level rules the frame
// codec adds on top of binproto's per-frame strictness.
func TestFrameStreamRejectsMalformed(t *testing.T) {
	stream := func(write func(w *binproto.Writer) error) *bytes.Buffer {
		var buf bytes.Buffer
		if err := write(binproto.NewWriter(&buf)); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	first := func(errs ...error) error {
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	blob := [][]byte{{1, 2, 3}}
	for _, tc := range []struct {
		name   string
		body   *bytes.Buffer
		substr string
	}{
		{"duplicate atom code across chunks", stream(func(w *binproto.Writer) error {
			return first(w.Atoms([]uint64{7}, blob), w.Atoms([]uint64{7}, blob), w.Stats(binproto.Stats{}), w.End(binproto.End{Items: 1}))
		}), "twice"},
		{"spans after End", stream(func(w *binproto.Writer) error {
			return first(w.Stats(binproto.Stats{}), w.End(binproto.End{Items: 1}), w.Spans("", []binproto.Span{{ID: 1, Name: "late"}}))
		}), "after the end frame"},
		{"unterminated item", stream(func(w *binproto.Writer) error {
			return first(w.Atoms([]uint64{7}, blob), w.End(binproto.End{Items: 0}))
		}), "unterminated"},
		{"item count mismatch", stream(func(w *binproto.Writer) error {
			return first(w.Stats(binproto.Stats{}), w.End(binproto.End{Items: 2}))
		}), "declares 2 items"},
	} {
		_, err := frameCodec{}.decode(PathAtoms, http.StatusOK, tc.body)
		if err == nil || !strings.Contains(err.Error(), tc.substr) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.substr)
		}
		if faulttol.Transient(err) {
			t.Errorf("%s: a malformed stream classified transient", tc.name)
		}
	}

	// The well-formed shape of the same streams decodes: atoms, grafted
	// spans and a requested tree side by side.
	res, err := frameCodec{}.decode(PathAtoms, http.StatusOK, stream(func(w *binproto.Writer) error {
		return first(w.Atoms([]uint64{7}, blob), w.Atoms([]uint64{9}, blob), w.Stats(binproto.Stats{}),
			w.Spans("", []binproto.Span{{ID: 1, Name: "serve_atoms", DurUS: 5}}),
			w.Spans("tid", []binproto.Span{{ID: 1, Name: "root"}}), w.End(binproto.End{Items: 1}))
	}))
	if err != nil {
		t.Fatal(err)
	}
	it, err := res.solo(PathAtoms)
	if err != nil || len(it.atoms) != 2 || !bytes.Equal(it.atoms[morton.Code(9)], blob[0]) {
		t.Errorf("atoms = %v (err %v), want codes 7 and 9", it.atoms, err)
	}
	if len(res.spans) != 1 || res.spans[0].Name != "serve_atoms" || res.trace == nil || res.trace.ID != "tid" {
		t.Errorf("spans = %+v, trace = %+v", res.spans, res.trace)
	}
}
