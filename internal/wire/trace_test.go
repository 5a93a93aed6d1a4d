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
	"testing"
	"time"

	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/mediator"
	"github.com/turbdb/turbdb/internal/obs"
	"github.com/turbdb/turbdb/internal/query"
)

func TestSpanDTORoundTrip(t *testing.T) {
	// Microsecond-multiple times survive the DTO's µs offsets exactly.
	in := []obs.Span{
		{ID: 1, Parent: 0, Name: "threshold", Start: 0, End: 1500 * time.Microsecond},
		{ID: 2, Parent: 1, Name: "scan_io", Start: 250 * time.Microsecond, End: 1250 * time.Microsecond},
	}
	dto := SpansToDTO(in)
	blob, err := json.Marshal(dto)
	if err != nil {
		t.Fatal(err)
	}
	var decoded []SpanDTO
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	out := SpansFromDTO(decoded)
	if len(out) != len(in) {
		t.Fatalf("got %d spans, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("span %d: %+v != %+v", i, out[i], in[i])
		}
	}
	if SpansToDTO(nil) != nil {
		t.Error("SpansToDTO(nil) should be nil (omitted from JSON)")
	}
	if SpansFromDTO(nil) != nil {
		t.Error("SpansFromDTO(nil) should be nil")
	}
}

// TestTracedRequestJSONRoundTrip proves requests carrying the trace fields
// survive encode → strict decode (the server uses DisallowUnknownFields) →
// ToQuery unchanged, and that the trace fields themselves survive.
func TestTracedRequestJSONRoundTrip(t *testing.T) {
	q := query.Threshold{Dataset: "d", Field: "f", Timestep: 1, Threshold: 2.5, FDOrder: 4, Limit: 10}
	req := ThresholdRequestFor(q)
	req.TraceID = "deadbeef01234567"
	req.Trace = true

	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	var got ThresholdRequest
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("strict decode rejected traced request: %v", err)
	}
	if got.TraceID != req.TraceID || !got.Trace {
		t.Errorf("trace fields lost: %+v", got)
	}
	if !reflect.DeepEqual(got.ToQuery(), q) {
		t.Errorf("query round trip: %+v vs %+v", got.ToQuery(), q)
	}

	// Untraced requests must not leak the fields onto the wire (omitempty
	// keeps old captures and old clients byte-compatible).
	plain, err := json.Marshal(ThresholdRequestFor(q))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(plain), "traceId") || strings.Contains(string(plain), `"trace"`) {
		t.Errorf("untraced request leaks trace fields: %s", plain)
	}
}

// TestWireDistributedTrace runs a traced threshold query through a mediator
// service over real HTTP node services and checks the assembled span tree:
// the response carries the tree, it contains the mediator stages and the
// per-node RPC + remote stage spans, and the root span fits within the
// observed wall time.
func TestWireDistributedTrace(t *testing.T) {
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

	q := query.Threshold{Dataset: "mhd", Field: derived.Current, Threshold: 1.0}
	wallStart := time.Now()
	pts, resp, err := user.ThresholdStats(context.Background(), q, true)
	wall := time.Since(wallStart)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	if resp.Trace == nil {
		t.Fatal("response carries no trace despite Trace=true")
	}
	if resp.Trace.ID == "" {
		t.Error("trace has no ID")
	}

	spans := SpansFromDTO(resp.Trace.Spans)
	names := map[string]int{}
	var root *obs.Span
	for i, s := range spans {
		names[s.Name]++
		if s.Parent == 0 {
			if root != nil {
				t.Errorf("multiple root spans: %q and %q", root.Name, s.Name)
			}
			root = &spans[i]
		}
	}
	for _, want := range []string{"threshold", "plan", "node[0]", "node[1]", "merge", "rpc:" + PathThreshold} {
		if names[want] == 0 {
			t.Errorf("span %q missing from tree:\n%v", want, names)
		}
	}
	if root == nil {
		t.Fatal("no root span")
	}
	// The root span covers the mediator-side evaluation, which happened
	// within our observed wall time (plus generous scheduling slack).
	if d := root.Duration(); d <= 0 || d > wall+time.Second {
		t.Errorf("root span duration %v vs wall %v", d, wall)
	}
	// Children nest within their parents' window.
	byID := map[uint64]obs.Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %q has unknown parent %d", s.Name, s.Parent)
			continue
		}
		if s.Start < p.Start {
			t.Errorf("span %q starts before its parent %q", s.Name, p.Name)
		}
	}

	// An untraced query must not return a trace.
	_, plain, err := user.ThresholdStats(context.Background(), q, false)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Trace != nil || plain.Spans != nil {
		t.Error("untraced query returned trace data")
	}

	// The rendered tree is also browsable on the mediator's trace store.
	tree := obs.TraceFromSpans(resp.Trace.ID, spans).Tree()
	if !strings.Contains(tree, "threshold") || !strings.Contains(tree, "node[0]") {
		t.Errorf("rendered tree incomplete:\n%s", tree)
	}
}

// TestFailedQueryTraceRecorded: the trace of a query that failed is the one
// an operator goes looking for, so a traced request rejected with
// threshold_too_low must be listed by the debug handler under its trace ID
// and show the stage that ran — on both encodings.
func TestFailedQueryTraceRecorded(t *testing.T) {
	clients, _ := startNodes(t, 1)
	dbg := httptest.NewServer(DebugHandler())
	defer dbg.Close()
	get := func(url string) string {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	for _, p := range []Proto{ProtoJSON, ProtoFrame} {
		tr := obs.NewTrace(obs.NewTraceID(), nil)
		_, err := NewClient(baseURL(clients[0]), WithProto(p)).GetThreshold(
			obs.ContextWithTrace(context.Background(), tr), nil,
			query.Threshold{Dataset: "mhd", Field: derived.Magnetic, Threshold: 0, Limit: 10})
		if !errors.Is(err, query.ErrThresholdTooLow) {
			t.Fatalf("%s: err = %v, want threshold_too_low", p, err)
		}
		if list := get(dbg.URL + "/debug/trace"); !strings.Contains(list, tr.ID()) {
			t.Errorf("%s: failed query's trace %s is not listed:\n%s", p, tr.ID(), list)
		}
		if tree := get(dbg.URL + "/debug/trace?id=" + tr.ID()); !strings.Contains(tree, "threshold") {
			t.Errorf("%s: stored trace of the failed query shows no threshold span:\n%s", p, tree)
		}
	}
}

// TestDebugHandlerEndpoints smoke-tests the shared diagnostics mux both
// daemons mount behind -debug-addr.
func TestDebugHandlerEndpoints(t *testing.T) {
	srv := httptest.NewServer(DebugHandler())
	defer srv.Close()

	for _, path := range []string{"/metrics", "/debug/trace", "/debug/pprof/"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}
