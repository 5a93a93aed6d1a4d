package wire

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"time"

	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/mediator"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/node"
	"github.com/turbdb/turbdb/internal/obs"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sched"
	"github.com/turbdb/turbdb/internal/sim"
)

// traceForRequest builds the per-request trace context: joining an
// existing distributed trace when the request carries a TraceID, minting a
// fresh one when it asks for tracing (mint), and plain ctx otherwise. The
// returned trace (nil when untraced) is recorded into the process trace
// store after the query finishes.
func traceForRequest(ctx context.Context, traceID string, mint bool) (context.Context, *obs.Trace) {
	if traceID == "" && !mint {
		return ctx, nil
	}
	if traceID == "" {
		traceID = obs.NewTraceID()
	}
	tr := obs.NewTrace(traceID, nil)
	return obs.ContextWithTrace(ctx, tr), tr
}

// traceDTOFor records a finished trace into the process store and renders
// it for a Trace=true response (nil for Spans-only propagation).
func traceDTOFor(tr *obs.Trace, wantTree bool) *TraceDTO {
	if tr == nil || !wantTree {
		return nil
	}
	return &TraceDTO{ID: tr.ID(), Spans: SpansToDTO(tr.Spans())}
}

// writeJSON writes a 200 response body. Encode failures cannot be reported
// to the client (the status line is already out), so they are logged.
func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("wire: encoding response: %v", err)
	}
}

// writeError maps errors to HTTP statuses, preserving the typed
// threshold-too-low error so clients can tell users to raise the
// threshold. Context cancellation and deadline expiry map to 503: the
// query was abandoned or timed out, not malformed — retryable from the
// client's point of view.
func writeError(w http.ResponseWriter, err error) {
	resp := ErrorResponse{Error: err.Error()}
	status := http.StatusBadRequest
	var tooMany *query.ErrTooManyPoints
	var overQuota *sched.ErrOverQuota
	switch {
	case errors.As(err, &tooMany):
		resp.Kind = "threshold_too_low"
		resp.Seen = tooMany.Seen
		resp.Limit = tooMany.Limit
		status = http.StatusRequestEntityTooLarge
	case errors.As(err, &overQuota):
		resp.Kind = "over_quota"
		resp.Tenant = overQuota.Tenant
		resp.Seen = overQuota.Queued
		resp.Limit = overQuota.Limit
		status = http.StatusTooManyRequests
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		resp.Kind = "unavailable"
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if encErr := json.NewEncoder(w).Encode(resp); encErr != nil {
		log.Printf("wire: encoding error response: %v", encErr)
	}
}

// decode reads a JSON request body.
func decode(r *http.Request, v interface{}) error {
	defer r.Body.Close() //lint:allow droppederr request-body close is best-effort
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("wire: bad request body: %w", err)
	}
	return nil
}

// post wraps a handler to require POST.
func post(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

// NodeServer exposes one database node over HTTP. Handlers run queries
// under the request's context, so a client disconnect or deadline aborts
// the evaluation server-side instead of burning the node's workers on an
// answer nobody will read.
type NodeServer struct {
	n   *node.Node
	cfg serverConfig
}

// NewNodeServer wraps a node.
func NewNodeServer(n *node.Node, opts ...ServerOption) *NodeServer {
	s := &NodeServer{n: n}
	for _, o := range opts {
		o(&s.cfg)
	}
	return s
}

// Handler returns the node's HTTP mux.
func (s *NodeServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathThreshold, post(s.handleThreshold))
	mux.HandleFunc(PathThresholdBatch, post(s.handleThresholdBatch))
	mux.HandleFunc(PathPDF, post(s.handlePDF))
	mux.HandleFunc(PathTopK, post(s.handleTopK))
	mux.HandleFunc(PathAtoms, post(s.handleAtoms))
	mux.HandleFunc(PathDropCache, post(s.handleDropCache))
	mux.HandleFunc(PathSetProcesses, post(s.handleSetProcesses))
	mux.HandleFunc(PathInfo, s.handleInfo)
	return mux
}

func (s *NodeServer) handleThreshold(w http.ResponseWriter, r *http.Request) {
	var req ThresholdRequest
	if err := decode(r, &req); err != nil {
		s.cfg.fail(w, r, err)
		return
	}
	frames := s.cfg.wantFrames(r, req.TraceID, req.Trace)
	ctx, tr := traceForRequest(r.Context(), req.TraceID, req.Trace)
	ctx, sp := obs.StartSpan(ctx, "threshold")
	res, err := s.n.GetThreshold(ctx, nil, req.ToQuery())
	sp.End()
	if err != nil {
		writeNegotiatedError(w, frames, err)
		return
	}
	obs.Traces().Record(tr)
	if frames {
		st := statsForBreakdown(res.Breakdown)
		st.FromCache = res.FromCache
		writeSoloFrames(w, res.Points, nil, st)
		return
	}
	writeQueryJSON(w, ThresholdResponse{
		Points: toDTO(res.Points), FromCache: res.FromCache,
		Breakdown: breakdownToDTO(res.Breakdown),
		Spans:     SpansToDTO(tr.Spans()),
		Trace:     traceDTOFor(tr, req.Trace),
	}, len(res.Points))
}

// handleThresholdBatch serves a shared-scan batch: one evaluation pass over
// the union of the members' boxes, one slot per member in the response. A
// per-member rejection (over the point limit) travels typed in its item;
// batch-wide failures (bad body, incompatible members, node trouble) fail
// the whole call like a solo request would.
func (s *NodeServer) handleThresholdBatch(w http.ResponseWriter, r *http.Request) {
	var req ThresholdBatchRequest
	if err := decode(r, &req); err != nil {
		s.cfg.fail(w, r, err)
		return
	}
	qs := make([]query.Threshold, len(req.Queries))
	for i, qr := range req.Queries {
		qs[i] = qr.ToQuery()
	}
	frames := s.cfg.wantFrames(r, req.TraceID, false)
	ctx, tr := traceForRequest(r.Context(), req.TraceID, false)
	ctx, sp := obs.StartSpan(ctx, "threshold_batch")
	res, err := s.n.GetThresholdBatch(ctx, nil, qs)
	sp.End()
	if err != nil {
		writeNegotiatedError(w, frames, err)
		return
	}
	obs.Traces().Record(tr)
	if frames {
		writeBatchFrames(w, res)
		return
	}
	resp := ThresholdBatchResponse{
		Items:        make([]BatchItemDTO, len(res.Results)),
		AtomsScanned: res.AtomsScanned,
		Spans:        SpansToDTO(tr.Spans()),
	}
	for i, rr := range res.Results {
		if memberErr := res.Errs[i]; memberErr != nil {
			item := BatchItemDTO{Error: memberErr.Error()}
			var tooMany *query.ErrTooManyPoints
			if errors.As(memberErr, &tooMany) {
				item.Kind = "threshold_too_low"
				item.Seen = tooMany.Seen
				item.Limit = tooMany.Limit
			}
			resp.Items[i] = item
			continue
		}
		resp.Items[i] = BatchItemDTO{
			Points: toDTO(rr.Points), FromCache: rr.FromCache,
			Breakdown:  breakdownToDTO(rr.Breakdown),
			Shared:     rr.Shared,
			ScansSaved: rr.ScansSaved,
		}
	}
	points := 0
	for _, item := range resp.Items {
		points += len(item.Points)
	}
	writeQueryJSON(w, resp, points)
}

func (s *NodeServer) handlePDF(w http.ResponseWriter, r *http.Request) {
	var req PDFRequest
	if err := decode(r, &req); err != nil {
		s.cfg.fail(w, r, err)
		return
	}
	frames := s.cfg.wantFrames(r, req.TraceID, req.Trace)
	ctx, tr := traceForRequest(r.Context(), req.TraceID, req.Trace)
	ctx, sp := obs.StartSpan(ctx, "pdf")
	res, err := s.n.GetPDF(ctx, nil, req.ToQuery())
	sp.End()
	if err != nil {
		writeNegotiatedError(w, frames, err)
		return
	}
	obs.Traces().Record(tr)
	if frames {
		writeSoloFrames(w, nil, res.Counts, statsForBreakdown(res.Breakdown))
		return
	}
	writeQueryJSON(w, PDFResponse{
		Counts: res.Counts, Breakdown: breakdownToDTO(res.Breakdown),
		Spans: SpansToDTO(tr.Spans()), Trace: traceDTOFor(tr, req.Trace),
	}, len(res.Counts))
}

func (s *NodeServer) handleTopK(w http.ResponseWriter, r *http.Request) {
	var req TopKRequest
	if err := decode(r, &req); err != nil {
		s.cfg.fail(w, r, err)
		return
	}
	frames := s.cfg.wantFrames(r, req.TraceID, req.Trace)
	ctx, tr := traceForRequest(r.Context(), req.TraceID, req.Trace)
	ctx, sp := obs.StartSpan(ctx, "topk")
	res, err := s.n.GetTopK(ctx, nil, req.ToQuery())
	sp.End()
	if err != nil {
		writeNegotiatedError(w, frames, err)
		return
	}
	obs.Traces().Record(tr)
	if frames {
		writeSoloFrames(w, res.Points, nil, statsForBreakdown(res.Breakdown))
		return
	}
	writeQueryJSON(w, TopKResponse{
		Points: toDTO(res.Points), Breakdown: breakdownToDTO(res.Breakdown),
		Spans: SpansToDTO(tr.Spans()), Trace: traceDTOFor(tr, req.Trace),
	}, len(res.Points))
}

func (s *NodeServer) handleAtoms(w http.ResponseWriter, r *http.Request) {
	var req AtomsRequest
	if err := decode(r, &req); err != nil {
		writeError(w, err)
		return
	}
	codes := make([]morton.Code, len(req.Codes))
	for i, c := range req.Codes {
		codes[i] = morton.Code(c)
	}
	ctx, tr := traceForRequest(r.Context(), req.TraceID, false)
	ctx, sp := obs.StartSpan(ctx, "serve_atoms")
	blobs, err := s.n.FetchAtoms(ctx, nil, req.Field, req.Timestep, codes)
	sp.End()
	if err != nil {
		writeError(w, err)
		return
	}
	obs.Traces().Record(tr)
	resp := AtomsResponse{Atoms: make(map[uint64][]byte, len(blobs)), Spans: SpansToDTO(tr.Spans())}
	for c, b := range blobs {
		resp.Atoms[uint64(c)] = b
	}
	writeJSON(w, resp)
}

func (s *NodeServer) handleDropCache(w http.ResponseWriter, r *http.Request) {
	var req DropCacheRequest
	if err := decode(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if err := s.n.DropCacheEntry(r.Context(), req.Field, req.FDOrder, req.Timestep); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, struct{}{})
}

func (s *NodeServer) handleSetProcesses(w http.ResponseWriter, r *http.Request) {
	var req SetProcessesRequest
	if err := decode(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if err := s.n.SetProcesses(r.Context(), req.Processes); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, struct{}{})
}

func (s *NodeServer) handleInfo(w http.ResponseWriter, r *http.Request) {
	g := s.n.Grid()
	info := InfoResponse{
		Dataset: s.n.Dataset(), GridN: g.N, AtomSide: g.AtomSide, Dx: g.Dx,
		OwnedLo: uint64(s.n.Owned().Lo), OwnedHi: uint64(s.n.Owned().Hi),
	}
	// Held is only reported when it says more than Owned does, keeping the
	// unreplicated /info body byte-identical.
	if held := s.n.Held(); len(held) > 1 || (len(held) == 1 && held[0] != s.n.Owned()) {
		info.Held = rangesToDTO(held)
	}
	writeJSON(w, info)
}

// Querier is the query surface the mediator HTTP endpoint serves: the bare
// mediator or the concurrent scheduler (internal/sched) wrapped around it —
// anything answering the three query shapes plus the metadata /info needs.
type Querier interface {
	Threshold(ctx context.Context, p *sim.Proc, q query.Threshold) ([]query.ResultPoint, *mediator.QueryStats, error)
	PDF(ctx context.Context, p *sim.Proc, q query.PDF) ([]int64, *mediator.QueryStats, error)
	TopK(ctx context.Context, p *sim.Proc, q query.TopK) ([]query.ResultPoint, *mediator.QueryStats, error)
	Grid() grid.Grid
	Dataset() string
	NodeCount() int
}

// MediatorServer exposes the mediator (the user-facing Web-services) over
// HTTP. Fan-outs inherit the request context, so user disconnects
// propagate to every node.
type MediatorServer struct {
	q   Querier
	cfg serverConfig
}

// NewMediatorServer wraps a bare mediator.
func NewMediatorServer(m *mediator.Mediator, opts ...ServerOption) *MediatorServer {
	return NewQuerierServer(m, opts...)
}

// NewQuerierServer wraps any Querier — in particular a *sched.Scheduler, so
// a daemon can put admission control and shared-scan batching in front of
// the same HTTP surface.
func NewQuerierServer(q Querier, opts ...ServerOption) *MediatorServer {
	s := &MediatorServer{q: q}
	for _, o := range opts {
		o(&s.cfg)
	}
	return s
}

// Handler returns the mediator's HTTP mux.
func (s *MediatorServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathThreshold, post(s.handleThreshold))
	mux.HandleFunc(PathPDF, post(s.handlePDF))
	mux.HandleFunc(PathTopK, post(s.handleTopK))
	mux.HandleFunc(PathInfo, s.handleInfo)
	return mux
}

func (s *MediatorServer) handleThreshold(w http.ResponseWriter, r *http.Request) {
	var req ThresholdRequest
	if err := decode(r, &req); err != nil {
		s.cfg.fail(w, r, err)
		return
	}
	frames := s.cfg.wantFrames(r, req.TraceID, req.Trace)
	ctx, tr := traceForRequest(r.Context(), req.TraceID, req.Trace)
	pts, stats, err := s.q.Threshold(ctx, nil, req.ToQuery())
	if err != nil {
		writeNegotiatedError(w, frames, err)
		return
	}
	obs.Traces().Record(tr)
	if frames {
		writeSoloFrames(w, pts, nil, statsForQuery(stats))
		return
	}
	resp := ThresholdResponse{
		Points:     toDTO(pts),
		FromCache:  stats.FromCache(),
		Breakdown:  breakdownToDTO(stats.NodeCritical),
		Coverage:   stats.Coverage,
		Failed:     len(stats.Failures),
		SharedScan: stats.SharedScan,
		ScansSaved: stats.ScansSaved,
		Trace:      traceDTOFor(tr, req.Trace),
	}
	if stats.QueueWait > 0 {
		resp.QueueWaitMS = float64(stats.QueueWait) / float64(time.Millisecond)
	}
	writeQueryJSON(w, resp, len(pts))
}

func (s *MediatorServer) handlePDF(w http.ResponseWriter, r *http.Request) {
	var req PDFRequest
	if err := decode(r, &req); err != nil {
		s.cfg.fail(w, r, err)
		return
	}
	frames := s.cfg.wantFrames(r, req.TraceID, req.Trace)
	ctx, tr := traceForRequest(r.Context(), req.TraceID, req.Trace)
	counts, stats, err := s.q.PDF(ctx, nil, req.ToQuery())
	if err != nil {
		writeNegotiatedError(w, frames, err)
		return
	}
	obs.Traces().Record(tr)
	if frames {
		writeSoloFrames(w, nil, counts, statsForQuery(stats))
		return
	}
	writeQueryJSON(w, PDFResponse{
		Counts: counts, Breakdown: breakdownToDTO(stats.NodeCritical),
		Coverage: stats.Coverage, Failed: len(stats.Failures),
		Trace: traceDTOFor(tr, req.Trace),
	}, len(counts))
}

func (s *MediatorServer) handleTopK(w http.ResponseWriter, r *http.Request) {
	var req TopKRequest
	if err := decode(r, &req); err != nil {
		s.cfg.fail(w, r, err)
		return
	}
	frames := s.cfg.wantFrames(r, req.TraceID, req.Trace)
	ctx, tr := traceForRequest(r.Context(), req.TraceID, req.Trace)
	pts, stats, err := s.q.TopK(ctx, nil, req.ToQuery())
	if err != nil {
		writeNegotiatedError(w, frames, err)
		return
	}
	obs.Traces().Record(tr)
	if frames {
		writeSoloFrames(w, pts, nil, statsForQuery(stats))
		return
	}
	writeQueryJSON(w, TopKResponse{
		Points: toDTO(pts), Breakdown: breakdownToDTO(stats.NodeCritical),
		Coverage: stats.Coverage, Failed: len(stats.Failures),
		Trace: traceDTOFor(tr, req.Trace),
	}, len(pts))
}

func (s *MediatorServer) handleInfo(w http.ResponseWriter, r *http.Request) {
	g := s.q.Grid()
	writeJSON(w, InfoResponse{
		Dataset: s.q.Dataset(), GridN: g.N, AtomSide: g.AtomSide, Dx: g.Dx,
	})
}
