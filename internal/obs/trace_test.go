package obs

import (
	"context"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic trace time base.
type fakeClock struct{ t time.Duration }

func (f *fakeClock) now() time.Duration      { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t += d }

func TestSpanNesting(t *testing.T) {
	clk := &fakeClock{t: 100 * time.Millisecond} // non-zero epoch must cancel out
	tr := NewTrace("t1", clk.now)
	ctx := ContextWithTrace(context.Background(), tr)

	ctx, root := StartSpan(ctx, "threshold")
	clk.advance(time.Millisecond)
	cctx, child := StartSpan(ctx, "node[0]")
	clk.advance(2 * time.Millisecond)
	_, grand := StartSpan(cctx, "scan_io")
	clk.advance(3 * time.Millisecond)
	grand.End()
	child.End()
	clk.advance(time.Millisecond)
	root.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["threshold"].Parent != 0 {
		t.Errorf("threshold should be a root span, parent = %d", byName["threshold"].Parent)
	}
	if byName["node[0]"].Parent != byName["threshold"].ID {
		t.Errorf("node[0] parent = %d, want %d", byName["node[0]"].Parent, byName["threshold"].ID)
	}
	if byName["scan_io"].Parent != byName["node[0]"].ID {
		t.Errorf("scan_io parent = %d, want %d", byName["scan_io"].Parent, byName["node[0]"].ID)
	}
	if d := byName["threshold"].Duration(); d != 7*time.Millisecond {
		t.Errorf("threshold duration = %v, want 7ms", d)
	}
	if d := byName["scan_io"].Duration(); d != 3*time.Millisecond {
		t.Errorf("scan_io duration = %v, want 3ms", d)
	}
	if s := byName["threshold"].Start; s != 0 {
		t.Errorf("root span start = %v, want 0 (epoch-relative)", s)
	}
}

func TestStartSpanWithoutTraceIsNoop(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "x")
	if ctx2 != ctx {
		t.Error("untraced StartSpan should return ctx unchanged")
	}
	sp.End()             // must not panic
	sp.Graft([]Span{{}}) // must not panic
	if TraceFrom(ctx2) != nil {
		t.Error("TraceFrom on untraced ctx should be nil")
	}
}

func TestNilTraceSafe(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" {
		t.Error("nil ID should be empty")
	}
	if tr.Spans() != nil {
		t.Error("nil Spans should be nil")
	}
	if tr.Tree() != "" {
		t.Error("nil Tree should be empty")
	}
	tr.Graft(1, []Span{{ID: 1, Name: "x"}}) // must not panic
	if ContextWithTrace(context.Background(), nil) != context.Background() {
		t.Error("ContextWithTrace(nil) should return ctx unchanged")
	}
}

func TestGraftRemapsAndShifts(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTrace("local", clk.now)
	ctx := ContextWithTrace(context.Background(), tr)
	clk.advance(10 * time.Millisecond)
	_, rpc := StartSpan(ctx, "rpc:/v1/threshold")

	// Remote spans with their own 1-based IDs and epoch-relative times.
	remote := []Span{
		{ID: 1, Parent: 0, Name: "threshold", Start: 0, End: 5 * time.Millisecond},
		{ID: 2, Parent: 1, Name: "scan_io", Start: time.Millisecond, End: 4 * time.Millisecond},
	}
	rpc.Graft(remote)
	clk.advance(6 * time.Millisecond)
	rpc.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	rpcSpan := byName["rpc:/v1/threshold"]
	remoteRoot := byName["threshold"]
	remoteChild := byName["scan_io"]
	if remoteRoot.Parent != rpcSpan.ID {
		t.Errorf("grafted root parent = %d, want rpc span %d", remoteRoot.Parent, rpcSpan.ID)
	}
	if remoteChild.Parent != remoteRoot.ID {
		t.Errorf("grafted child parent = %d, want %d", remoteChild.Parent, remoteRoot.ID)
	}
	if remoteRoot.ID == 1 || remoteChild.ID == 2 {
		t.Errorf("remote IDs not remapped: root=%d child=%d", remoteRoot.ID, remoteChild.ID)
	}
	// Remote epoch is aligned to the rpc span's start (10ms).
	if remoteRoot.Start != 10*time.Millisecond {
		t.Errorf("grafted root start = %v, want 10ms", remoteRoot.Start)
	}
	if remoteChild.Start != 11*time.Millisecond {
		t.Errorf("grafted child start = %v, want 11ms", remoteChild.Start)
	}
	// A span opened after the graft must not collide with remapped IDs.
	_, after := StartSpan(ctx, "merge")
	after.End()
	seen := map[uint64]bool{}
	for _, s := range tr.Spans() {
		if seen[s.ID] {
			t.Fatalf("duplicate span ID %d after graft", s.ID)
		}
		seen[s.ID] = true
	}
}

func TestTreeRendering(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTrace("deadbeef", clk.now)
	ctx := ContextWithTrace(context.Background(), tr)
	ctx, root := StartSpan(ctx, "threshold")
	_, a := StartSpan(ctx, "plan")
	clk.advance(time.Millisecond)
	a.End()
	_, b := StartSpan(ctx, "merge")
	clk.advance(time.Millisecond)
	b.End()
	root.End()

	tree := tr.Tree()
	if !strings.HasPrefix(tree, "deadbeef\n") {
		t.Errorf("tree should start with the trace ID:\n%s", tree)
	}
	// plan started before merge, so it must render first and with the
	// non-final connector.
	planIdx := strings.Index(tree, "plan")
	mergeIdx := strings.Index(tree, "merge")
	if planIdx < 0 || mergeIdx < 0 || planIdx > mergeIdx {
		t.Errorf("children out of start order:\n%s", tree)
	}
	if !strings.Contains(tree, "├─ plan") || !strings.Contains(tree, "└─ merge") {
		t.Errorf("connectors wrong:\n%s", tree)
	}
	if !strings.Contains(tree, "└─ threshold") {
		t.Errorf("root span missing:\n%s", tree)
	}
}

func TestTraceFromSpansRoundTrip(t *testing.T) {
	in := []Span{
		{ID: 1, Name: "a", Start: 0, End: time.Millisecond},
		{ID: 2, Parent: 1, Name: "b", Start: 0, End: time.Microsecond},
	}
	tr := TraceFromSpans("remote", in)
	if tr.ID() != "remote" {
		t.Errorf("ID = %q", tr.ID())
	}
	got := tr.Spans()
	if len(got) != 2 || got[0] != in[0] || got[1] != in[1] {
		t.Errorf("spans round-trip mismatch: %v", got)
	}
	// next must be past the max imported ID so Graft cannot collide.
	tr.Graft(1, []Span{{ID: 1, Name: "c"}})
	seen := map[uint64]bool{}
	for _, s := range tr.Spans() {
		if seen[s.ID] {
			t.Fatalf("duplicate ID %d after graft onto rebuilt trace", s.ID)
		}
		seen[s.ID] = true
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := NewTrace("conc", nil)
	ctx := ContextWithTrace(context.Background(), tr)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c, sp := StartSpan(ctx, "worker")
				_, inner := StartSpan(c, "inner")
				inner.End()
				sp.End()
			}
		}()
	}
	wg.Wait()
	spans := tr.Spans()
	if len(spans) != 8*200*2 {
		t.Fatalf("got %d spans, want %d", len(spans), 8*200*2)
	}
	seen := map[uint64]bool{}
	for _, s := range spans {
		if seen[s.ID] {
			t.Fatalf("duplicate span ID %d under concurrency", s.ID)
		}
		seen[s.ID] = true
		if s.End < s.Start {
			t.Fatalf("span %d ends before it starts", s.ID)
		}
	}
}

func TestTraceStoreEvictionAndReplace(t *testing.T) {
	s := NewTraceStore(2)
	t1, t2, t3 := NewTrace("a", nil), NewTrace("b", nil), NewTrace("c", nil)
	s.Record(t1)
	s.Record(t2)
	s.Record(t3) // evicts a
	if s.Get("a") != nil {
		t.Error("oldest trace should have been evicted")
	}
	if s.Get("b") != t2 || s.Get("c") != t3 {
		t.Error("recent traces lost")
	}
	if ids := s.IDs(); len(ids) != 2 || ids[0] != "b" || ids[1] != "c" {
		t.Errorf("IDs = %v, want [b c]", ids)
	}
	// Same ID replaces in place, no eviction.
	b2 := NewTrace("b", nil)
	s.Record(b2)
	if s.Get("b") != b2 {
		t.Error("re-recording an ID should replace the trace")
	}
	if ids := s.IDs(); len(ids) != 2 {
		t.Errorf("replace changed the ring: %v", ids)
	}
	s.Record(nil) // must not panic
}

func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("h_total").Inc()
	rec := httptest.NewRecorder()
	MetricsHandler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "h_total 1") {
		t.Errorf("body missing metric:\n%s", rec.Body.String())
	}
}

func TestTraceHandler(t *testing.T) {
	s := NewTraceStore(4)
	tr := NewTrace("abc123", nil)
	ctx := ContextWithTrace(context.Background(), tr)
	_, sp := StartSpan(ctx, "threshold")
	sp.End()
	s.Record(tr)

	rec := httptest.NewRecorder()
	TraceHandler(s).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
	if !strings.Contains(rec.Body.String(), "abc123") {
		t.Errorf("ID listing missing trace:\n%s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	TraceHandler(s).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?id=abc123", nil))
	if !strings.Contains(rec.Body.String(), "threshold") {
		t.Errorf("tree missing span:\n%s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	TraceHandler(s).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?id=nope", nil))
	if rec.Code != 404 {
		t.Errorf("unknown ID status = %d, want 404", rec.Code)
	}
}

func TestNewTraceIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		id := NewTraceID()
		if len(id) != 16 {
			t.Fatalf("ID %q not 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("duplicate trace ID %q", id)
		}
		seen[id] = true
	}
}
