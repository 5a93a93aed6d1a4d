package wire

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/field"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/mediator"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/node"
	"github.com/turbdb/turbdb/internal/obs"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sim"
)

// endpoint is the one server pipeline, returned as the (pattern, handler)
// pair mux.HandleFunc takes: require POST → decode the JSON request →
// pick the response codec from Accept and the server policy → join or
// mint the request's trace → run under the endpoint's span (none where the
// engine opens the root span itself: the mediator) → record the trace →
// encode the result or the error. run maps the request DTO to the engine
// call and the answer to the envelope, and knows nothing of encodings; it
// runs under the request's context, so a client disconnect or deadline
// aborts the evaluation instead of burning workers on an unread answer.
func endpoint[R any](cfg serverConfig, path, span string, run func(context.Context, *R) (*result, error)) (string, http.HandlerFunc) {
	return path, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		cd := cfg.codecFor(r)
		var req R
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		err := dec.Decode(&req)
		_ = r.Body.Close() //lint:allow droppederr request-body close is best-effort
		if err != nil {
			cd.encode(w, path, nil, fmt.Errorf("wire: bad request body: %w", err))
			return
		}
		// A request joins the trace it names, or has one minted when it asks
		// for the tree; a nil trace makes all of the below a no-op.
		var tr *obs.Trace
		traceID, mint := traceFields(&req)
		if traceID == "" && mint {
			traceID = obs.NewTraceID()
		}
		if traceID != "" {
			tr = obs.NewTrace(traceID, nil)
		}
		ctx := obs.ContextWithTrace(r.Context(), tr)
		var sp obs.ActiveSpan
		if span != "" {
			ctx, sp = obs.StartSpan(ctx, span)
		}
		res, err := run(ctx, &req)
		sp.End()
		// Recorded whatever the outcome: the trace of a failed or shed query
		// is the one an operator goes looking for.
		obs.Traces().Record(tr)
		if err == nil && mint {
			res.trace = &TraceDTO{ID: tr.ID(), Spans: SpansToDTO(tr.Spans())}
		} else if err == nil {
			res.spans = SpansToDTO(tr.Spans())
		}
		cd.encode(w, path, res, err)
	}
}

// traceFields reads a request DTO's transport-level trace fields: the ID
// of the trace it joins, and whether it wants one minted and returned.
func traceFields(req any) (traceID string, mint bool) {
	switch r := req.(type) {
	case *ThresholdRequest:
		return r.TraceID, r.Trace
	case *PDFRequest:
		return r.TraceID, r.Trace
	case *TopKRequest:
		return r.TraceID, r.Trace
	case *ThresholdBatchRequest:
		return r.TraceID, false
	case *AtomsRequest:
		return r.TraceID, false
	}
	return "", false
}

// NodeServer exposes one database node over HTTP.
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
	mux.HandleFunc(endpoint(s.cfg, PathThreshold, "threshold", func(ctx context.Context, req *ThresholdRequest) (*result, error) {
		res, err := s.n.GetThreshold(ctx, nil, req.ToQuery())
		if err != nil {
			return nil, err
		}
		return soloResult(item{ThresholdResult: *res}), nil
	}))
	// A shared-scan batch is one pass over the union of the members' boxes
	// and one item per member. A member's rejection (over the point limit)
	// travels typed in its item; batch-wide failures (incompatible members,
	// node trouble) fail the whole call like a solo request's would.
	mux.HandleFunc(endpoint(s.cfg, PathThresholdBatch, "threshold_batch", func(ctx context.Context, req *ThresholdBatchRequest) (*result, error) {
		qs := make([]query.Threshold, len(req.Queries))
		for i, qr := range req.Queries {
			qs[i] = qr.ToQuery()
		}
		res, err := s.n.GetThresholdBatch(ctx, nil, qs)
		if err != nil {
			return nil, err
		}
		out := &result{items: make([]item, len(res.Results)), atomsScanned: res.AtomsScanned}
		for i, rr := range res.Results {
			if out.items[i].err = res.Errs[i]; rr != nil {
				out.items[i].ThresholdResult = *rr
			}
		}
		return out, nil
	}))
	mux.HandleFunc(endpoint(s.cfg, PathPDF, "pdf", func(ctx context.Context, req *PDFRequest) (*result, error) {
		res, err := s.n.GetPDF(ctx, nil, req.ToQuery())
		if err != nil {
			return nil, err
		}
		return soloResult(item{counts: res.Counts, ThresholdResult: node.ThresholdResult{Breakdown: res.Breakdown}}), nil
	}))
	mux.HandleFunc(endpoint(s.cfg, PathTopK, "topk", func(ctx context.Context, req *TopKRequest) (*result, error) {
		res, err := s.n.GetTopK(ctx, nil, req.ToQuery())
		if err != nil {
			return nil, err
		}
		return soloResult(item{ThresholdResult: node.ThresholdResult{Points: res.Points, Breakdown: res.Breakdown}}), nil
	}))
	mux.HandleFunc(endpoint(s.cfg, PathAtoms, "serve_atoms", func(ctx context.Context, req *AtomsRequest) (*result, error) {
		boxes, err := boxesFromDTO(req.Boxes, len(req.Codes), s.n.Grid().AtomSide)
		if err != nil {
			return nil, err
		}
		codes := make([]morton.Code, len(req.Codes))
		for i, c := range req.Codes {
			codes[i] = morton.Code(c)
		}
		blobs, err := s.n.FetchAtoms(ctx, nil, req.Field, req.Timestep, codes)
		if err == nil && boxes != nil {
			blobs, err = s.bands(req.Field, codes, blobs, boxes)
		}
		if err != nil {
			return nil, err
		}
		return soloResult(item{atoms: blobs}), nil
	}))
	mux.HandleFunc(endpoint(s.cfg, PathDropCache, "", func(ctx context.Context, req *DropCacheRequest) (*result, error) {
		return &result{}, s.n.DropCacheEntry(ctx, req.Field, req.FDOrder, req.Timestep)
	}))
	mux.HandleFunc(endpoint(s.cfg, PathSetProcesses, "", func(ctx context.Context, req *SetProcessesRequest) (*result, error) {
		return &result{}, s.n.SetProcesses(ctx, req.Processes)
	}))
	mux.HandleFunc(PathInfo, func(w http.ResponseWriter, r *http.Request) {
		g := s.n.Grid()
		info := InfoResponse{
			Dataset: s.n.Dataset(), GridN: g.N, AtomSide: g.AtomSide, Dx: g.Dx,
			OwnedLo: uint64(s.n.Owned().Lo), OwnedHi: uint64(s.n.Owned().Hi),
		}
		// Held is only reported when it says more than Owned does, keeping
		// the unreplicated /info body byte-identical.
		if held := s.n.Held(); len(held) > 1 || (len(held) == 1 && held[0] != s.n.Owned()) {
			info.Held = rangesToDTO(held)
		}
		writeJSON(w, http.StatusOK, info)
	})
	return mux
}

// bands cuts out of the whole atoms blobs of codes the part of each that
// boxes names — what the asking scan reads of it — copying its rows out of
// the store's slice. An atom the scan reads whole ships as that slice.
func (s *NodeServer) bands(rawField string, codes []morton.Code, blobs map[morton.Code][]byte, boxes []grid.Box) (map[morton.Code][]byte, error) {
	meta, err := s.n.Store().FieldMeta(rawField)
	if err != nil {
		return nil, err
	}
	atom := s.n.Grid().AtomBox(0)
	size := 0
	for _, b := range boxes {
		if b != atom {
			size += field.ByteSize(b, meta.NComp)
		}
	}
	buf := make([]byte, 0, size)
	out := make(map[morton.Code][]byte, len(codes))
	for i, c := range codes {
		blob := blobs[c]
		if len(blob) != field.ByteSize(atom, meta.NComp) {
			return nil, faulttol.Permanentf("wire: atom %v of %q is %d bytes in the store", c, rawField, len(blob))
		}
		if boxes[i] == atom {
			out[c] = blob
			continue
		}
		start := len(buf)
		buf = field.AppendPart(buf, blob, atom, boxes[i], meta.NComp)
		out[c] = buf[start:len(buf):len(buf)]
	}
	return out, nil
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

// statsResult is a mediator answer: points or counts with its QueryStats.
func statsResult(pts []query.ResultPoint, counts []int64, stats *mediator.QueryStats) *result {
	it := item{
		ThresholdResult: node.ThresholdResult{
			Points: pts, FromCache: stats.FromCache(), Breakdown: stats.NodeCritical, ScansSaved: stats.ScansSaved,
		},
		counts: counts, coverage: stats.Coverage, failed: len(stats.Failures), sharedScan: stats.SharedScan,
	}
	if stats.QueueWait > 0 {
		it.queueWaitMS = float64(stats.QueueWait) / float64(time.Millisecond)
	}
	return soloResult(it)
}

// Handler returns the mediator's HTTP mux.
func (s *MediatorServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(endpoint(s.cfg, PathThreshold, "", func(ctx context.Context, req *ThresholdRequest) (*result, error) {
		pts, stats, err := s.q.Threshold(ctx, nil, req.ToQuery())
		if err != nil {
			return nil, err
		}
		return statsResult(pts, nil, stats), nil
	}))
	mux.HandleFunc(endpoint(s.cfg, PathPDF, "", func(ctx context.Context, req *PDFRequest) (*result, error) {
		counts, stats, err := s.q.PDF(ctx, nil, req.ToQuery())
		if err != nil {
			return nil, err
		}
		return statsResult(nil, counts, stats), nil
	}))
	mux.HandleFunc(endpoint(s.cfg, PathTopK, "", func(ctx context.Context, req *TopKRequest) (*result, error) {
		pts, stats, err := s.q.TopK(ctx, nil, req.ToQuery())
		if err != nil {
			return nil, err
		}
		return statsResult(pts, nil, stats), nil
	}))
	mux.HandleFunc(PathInfo, func(w http.ResponseWriter, r *http.Request) {
		g := s.q.Grid()
		writeJSON(w, http.StatusOK, InfoResponse{Dataset: s.q.Dataset(), GridN: g.N, AtomSide: g.AtomSide, Dx: g.Dx})
	})
	return mux
}
