package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/mediator"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/node"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sim"
	"github.com/turbdb/turbdb/internal/wire"
)

// Tracing lives entirely in the harness: a span is recorded around every
// call the bench makes into a layer's public functions, by wrappers
// installed at the seams the program already offers (http.RoundTripper,
// http.Handler, sched.Backend, mediator.NodeClient, node.PeerFetcher). An
// untraced run installs none of them.

// span is one timed call. Spans of one query share its id; every span but
// the root "query" span names the span that caused it.
type span struct {
	Query   int64            `json:"query"`
	ID      int64            `json:"id"`
	Parent  int64            `json:"parent"`
	Name    string           `json:"name"`
	Class   string           `json:"class,omitempty"` // root spans: the op's (field, order) class
	Start   int64            `json:"start_ns"`
	End     int64            `json:"end_ns"`
	Counts  map[string]int64 `json:"counts,omitempty"`
	Members []int64          `json:"members,omitempty"` // batch spans: the queries sharing the scan
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer collects spans in memory; they are written out when the run ends.
type tracer struct {
	t0 time.Time

	mu       sync.Mutex
	spans    []span
	nextID   int64
	inflight map[memberKey][]int64 // open root spans by query value, for batch membership
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), inflight: make(map[memberKey][]int64)}
}

// activeSpan is an open span. Counts may be added from any goroutine until
// end is called.
type activeSpan struct {
	tr *tracer
	mu sync.Mutex
	s  span
}

type spanCtxKey struct{}

// from returns the open span ctx carries, or nil.
func spanFrom(ctx context.Context) *activeSpan {
	a, _ := ctx.Value(spanCtxKey{}).(*activeSpan)
	return a
}

func (t *tracer) open(query, parent int64, name string) *activeSpan {
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	if query == 0 {
		query = id // a root span: the query takes its id
	}
	return &activeSpan{tr: t, s: span{Query: query, ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0))}}
}

// root opens the "query" span of one op and registers it for batch
// membership lookups.
func (t *tracer) root(ctx context.Context, key memberKey) (context.Context, *activeSpan) {
	a := t.open(0, 0, "query")
	t.mu.Lock()
	t.inflight[key] = append(t.inflight[key], a.s.ID)
	t.mu.Unlock()
	return context.WithValue(ctx, spanCtxKey{}, a), a
}

func (t *tracer) endRoot(a *activeSpan, key memberKey) {
	t.mu.Lock()
	ids := t.inflight[key]
	for i, id := range ids {
		if id == a.s.ID {
			ids = append(ids[:i], ids[i+1:]...)
			break
		}
	}
	if len(ids) == 0 {
		delete(t.inflight, key)
	} else {
		t.inflight[key] = ids
	}
	t.mu.Unlock()
	a.end()
}

// start opens a child of the span ctx carries. Calls outside any query
// (set-up, cache drops) carry none and are not recorded: the returned span
// is nil and every method of a nil span is a no-op.
func (t *tracer) start(ctx context.Context, name string) (context.Context, *activeSpan) {
	parent := spanFrom(ctx)
	if parent == nil {
		return ctx, nil
	}
	a := t.open(parent.s.Query, parent.s.ID, name)
	return context.WithValue(ctx, spanCtxKey{}, a), a
}

func (a *activeSpan) add(key string, n int64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	if a.s.Counts == nil {
		a.s.Counts = make(map[string]int64)
	}
	a.s.Counts[key] += n
	a.mu.Unlock()
}

func (a *activeSpan) end() {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.s.End = int64(time.Since(a.tr.t0))
	s := a.s
	a.mu.Unlock()
	a.tr.mu.Lock()
	a.tr.spans = append(a.tr.spans, s)
	a.tr.mu.Unlock()
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			_ = f.Close() //lint:allow droppederr the encode error is the one worth reporting
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() //lint:allow droppederr the flush error is the one worth reporting
		return err
	}
	return f.Close()
}

// memberKey identifies a threshold query by value. The scheduler hands its
// backend the member queries of a batch, not their callers, so membership
// is recovered by matching values against the open root spans; identical
// concurrent queries are interchangeable.
type memberKey struct {
	field     string
	step      int
	order     int
	threshold float64
	box       grid.Box
	tenant    string
}

func memberKeyOf(q query.Threshold, domain grid.Box) memberKey {
	q = q.Normalize(domain)
	return memberKey{q.Field, q.Timestep, q.FDOrder, q.Threshold, q.Box, q.Tenant}
}

func (t *tracer) members(qs []query.Threshold, domain grid.Box) []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	taken := make(map[memberKey]int)
	var ids []int64
	for _, q := range qs {
		k := memberKeyOf(q, domain)
		open := t.inflight[k]
		if i := taken[k]; i < len(open) {
			ids = append(ids, open[i])
			taken[k] = i + 1
		}
	}
	return ids
}

// HTTP hops carry the query and the causing span in two request headers.
const (
	hdrQuery = "X-Bench-Query"
	hdrSpan  = "X-Bench-Span"
)

// tracedTransport stamps outgoing requests with the span ctx carries and
// counts requests, response bytes and the time to the response headers.
// With a name it records a span of its own that ends when the response
// body is closed (the user hop); without, it adds its counts to the
// enclosing span (node and halo hops, whose client calls are spans
// already).
type tracedTransport struct {
	tr    *tracer
	name  string
	inner http.RoundTripper
}

// transport mirrors the connection pooling of wire's default transport.
func (t *tracer) transport(name string) http.RoundTripper {
	return &tracedTransport{tr: t, name: name, inner: &http.Transport{
		MaxIdleConns: 256, MaxIdleConnsPerHost: 32, IdleConnTimeout: 90 * time.Second,
	}}
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sp := spanFrom(req.Context())
	if sp == nil {
		return tt.inner.RoundTrip(req)
	}
	own := tt.name != ""
	if own {
		_, sp = tt.tr.start(req.Context(), tt.name)
	}
	req = req.Clone(req.Context())
	req.Header.Set(hdrQuery, strconv.FormatInt(sp.s.Query, 10))
	req.Header.Set(hdrSpan, strconv.FormatInt(sp.s.ID, 10))
	start := time.Now()
	resp, err := tt.inner.RoundTrip(req)
	sp.add("requests", 1)
	if err != nil {
		if own {
			sp.end()
		}
		return nil, err
	}
	sp.add("ttfb_ns", int64(time.Since(start)))
	resp.Body = &countingBody{inner: resp.Body, sp: sp, own: own}
	return resp, nil
}

type countingBody struct {
	inner io.ReadCloser
	sp    *activeSpan
	own   bool
	once  sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.inner.Read(p)
	b.sp.add("bytes", int64(n))
	return n, err
}

func (b *countingBody) Close() error {
	err := b.inner.Close()
	if b.own {
		b.once.Do(b.sp.end)
	}
	return err
}

// handler wraps a service's mux: requests stamped by a traced client get a
// span (named name, or "wire.atoms_handler" for halo fetches) that their
// handling runs under.
func (t *tracer) handler(inner http.Handler, name string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q, errQ := strconv.ParseInt(r.Header.Get(hdrQuery), 10, 64)
		parent, errP := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		if errQ != nil || errP != nil {
			inner.ServeHTTP(w, r)
			return
		}
		spanName := name
		if r.URL.Path == wire.PathAtoms {
			spanName = "wire.atoms_handler"
		}
		a := t.open(q, parent, spanName)
		inner.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanCtxKey{}, a)))
		a.end()
	})
}

// tracedNode wraps a mediator.NodeClient — an in-process *node.Node (span
// "node") or a *wire.Client of a node service (span "wire.node_rpc") — and
// copies what the call returned (Breakdown, FromCache, result size) into
// the span's counts. It implements mediator.BatchNodeClient: without that
// the mediator would silently answer batches member by member.
type tracedNode struct {
	tr    *tracer
	inner mediator.BatchNodeClient
	name  string
}

func breakdownCounts(sp *activeSpan, bd node.Breakdown) {
	sp.add("cache_lookup_ns", int64(bd.CacheLookup))
	sp.add("io_ns", int64(bd.IO))
	sp.add("compute_ns", int64(bd.Compute))
	sp.add("cache_update_ns", int64(bd.CacheUpdate))
	sp.add("total_ns", int64(bd.Total))
	sp.add("atoms_read", int64(bd.AtomsRead))
	sp.add("halo_atoms", int64(bd.HaloAtoms))
	sp.add("points_examined", int64(bd.PointsExamined))
}

func (n *tracedNode) GetThreshold(ctx context.Context, p *sim.Proc, q query.Threshold) (*node.ThresholdResult, error) {
	ctx, sp := n.tr.start(ctx, n.name)
	defer sp.end()
	res, err := n.inner.GetThreshold(ctx, p, q)
	if err == nil && sp != nil {
		breakdownCounts(sp, res.Breakdown)
		sp.add("points", int64(len(res.Points)))
		sp.add("calls", 1)
		if res.FromCache {
			sp.add("from_cache", 1)
		}
	}
	return res, err
}

func (n *tracedNode) GetThresholdBatch(ctx context.Context, p *sim.Proc, qs []query.Threshold) (*node.ThresholdBatchResult, error) {
	ctx, sp := n.tr.start(ctx, n.name)
	defer sp.end()
	res, err := n.inner.GetThresholdBatch(ctx, p, qs)
	if err == nil && sp != nil {
		sp.add("batch_members", int64(len(qs)))
		sp.add("atoms_scanned", int64(res.AtomsScanned))
		for _, r := range res.Results {
			if r == nil {
				continue
			}
			sp.add("points", int64(len(r.Points)))
			sp.add("calls", 1)
			if r.FromCache {
				sp.add("from_cache", 1)
			}
		}
		// Members of one pass report the pass's phases each; keep one copy.
		for _, r := range res.Results {
			if r != nil && !r.FromCache {
				breakdownCounts(sp, r.Breakdown)
				break
			}
		}
	}
	return res, err
}

func (n *tracedNode) GetPDF(ctx context.Context, p *sim.Proc, q query.PDF) (*node.PDFResult, error) {
	ctx, sp := n.tr.start(ctx, n.name)
	defer sp.end()
	res, err := n.inner.GetPDF(ctx, p, q)
	if err == nil && sp != nil {
		breakdownCounts(sp, res.Breakdown)
		sp.add("calls", 1)
	}
	return res, err
}

func (n *tracedNode) GetTopK(ctx context.Context, p *sim.Proc, q query.TopK) (*node.TopKResult, error) {
	ctx, sp := n.tr.start(ctx, n.name)
	defer sp.end()
	res, err := n.inner.GetTopK(ctx, p, q)
	if err == nil && sp != nil {
		breakdownCounts(sp, res.Breakdown)
		sp.add("points", int64(len(res.Points)))
		sp.add("calls", 1)
	}
	return res, err
}

func (n *tracedNode) DropCacheEntry(ctx context.Context, fieldName string, order, step int) error {
	return n.inner.DropCacheEntry(ctx, fieldName, order, step)
}

func (n *tracedNode) SetProcesses(ctx context.Context, p int) error {
	return n.inner.SetProcesses(ctx, p)
}

func (n *tracedNode) Describe(ctx context.Context) (node.Description, error) {
	return n.inner.Describe(ctx)
}

// tracedPeers wraps a node's halo fetcher (span "node.halo_fetch").
type tracedPeers struct {
	tr    *tracer
	inner node.PeerFetcher
}

func (tp *tracedPeers) FetchAtoms(ctx context.Context, p *sim.Proc, rawField string, step int, codes []morton.Code) (map[morton.Code][]byte, error) {
	ctx, sp := tp.tr.start(ctx, "node.halo_fetch")
	defer sp.end()
	sp.add("atoms", int64(len(codes)))
	return tp.inner.FetchAtoms(ctx, p, rawField, step, codes)
}

// tracedQuerier wraps a query surface and records one span, named name,
// around every call: "sched" around the scheduler's entry points (the
// admission queue, the batching window and the dispatch are its self time),
// "mediator" around the mediator's.
type tracedQuerier struct {
	tr    *tracer
	inner wire.Querier
	name  string
}

func statsCounts(sp *activeSpan, st *mediator.QueryStats) {
	if sp == nil || st == nil {
		return
	}
	sp.add("points", int64(st.Points))
	sp.add("cache_hits", int64(st.CacheHits))
	sp.add("queue_wait_ns", int64(st.QueueWait))
	sp.add("scans_saved", int64(st.ScansSaved))
	if st.SharedScan {
		sp.add("shared_scan", 1)
	}
}

func (q *tracedQuerier) Threshold(ctx context.Context, p *sim.Proc, qu query.Threshold) ([]query.ResultPoint, *mediator.QueryStats, error) {
	ctx, sp := q.tr.start(ctx, q.name)
	defer sp.end()
	pts, st, err := q.inner.Threshold(ctx, p, qu)
	statsCounts(sp, st)
	return pts, st, err
}

func (q *tracedQuerier) PDF(ctx context.Context, p *sim.Proc, qu query.PDF) ([]int64, *mediator.QueryStats, error) {
	ctx, sp := q.tr.start(ctx, q.name)
	defer sp.end()
	counts, st, err := q.inner.PDF(ctx, p, qu)
	statsCounts(sp, st)
	return counts, st, err
}

func (q *tracedQuerier) TopK(ctx context.Context, p *sim.Proc, qu query.TopK) ([]query.ResultPoint, *mediator.QueryStats, error) {
	ctx, sp := q.tr.start(ctx, q.name)
	defer sp.end()
	pts, st, err := q.inner.TopK(ctx, p, qu)
	statsCounts(sp, st)
	return pts, st, err
}

func (q *tracedQuerier) Grid() grid.Grid { return q.inner.Grid() }
func (q *tracedQuerier) Dataset() string { return q.inner.Dataset() }
func (q *tracedQuerier) NodeCount() int  { return q.inner.NodeCount() }

// tracedBackend is the mediator as the scheduler's backend: the "mediator"
// spans of a tracedQuerier around solo calls, plus a "batch" span listing
// the member queries around a shared scan.
type tracedBackend struct {
	tracedQuerier
	med *mediator.Mediator
}

func newTracedBackend(tr *tracer, med *mediator.Mediator) *tracedBackend {
	return &tracedBackend{tracedQuerier{tr, med, "mediator"}, med}
}

func (b *tracedBackend) ThresholdBatch(ctx context.Context, p *sim.Proc, qs []query.Threshold) ([]mediator.BatchAnswer, error) {
	ctx, sp := b.tr.start(ctx, "batch")
	defer sp.end()
	if sp != nil {
		sp.s.Members = b.tr.members(qs, b.med.Grid().Domain())
		sp.add("batch_members", int64(len(qs)))
	}
	ans, err := b.med.ThresholdBatch(ctx, p, qs)
	for _, a := range ans {
		if a.Err == nil {
			sp.add("points", int64(len(a.Points)))
		}
	}
	return ans, err
}
