package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/node"
	"github.com/turbdb/turbdb/internal/obs"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sched"
	"github.com/turbdb/turbdb/internal/sim"
	"github.com/turbdb/turbdb/internal/wire/binproto"
)

// startRPC opens a client-side span for one RPC and stamps the outgoing
// request with the context's trace ID, so the serving node records its
// stage spans under the same distributed trace. No-op (zero handle, empty
// ID) when ctx carries no trace.
func startRPC(ctx context.Context, traceID *string, path string) (context.Context, obs.ActiveSpan) {
	tr := obs.TraceFrom(ctx)
	if tr == nil {
		return ctx, obs.ActiveSpan{}
	}
	*traceID = tr.ID()
	return obs.StartSpan(ctx, "rpc:"+path)
}

// DefaultRequestTimeout bounds a single request when the caller's context
// carries no deadline. Threshold scans over cold data are minutes-long, so
// the floor is generous; callers wanting tighter bounds pass a ctx
// deadline.
const DefaultRequestTimeout = 10 * time.Minute

// maxErrorBody caps how much of an error response body is read: a
// misbehaving server must not make the client buffer an unbounded body
// just to produce an error message.
const maxErrorBody = 64 << 10

// StatusError is a non-200 response that did not carry a typed error the
// client maps to a domain error. Availability-class statuses (5xx, 429,
// 408) classify as transient so the fault-tolerance stack retries them.
type StatusError struct {
	Path   string
	Status int
	Msg    string
}

func (e *StatusError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("wire: %s: HTTP %d: %s", e.Path, e.Status, e.Msg)
	}
	return fmt.Sprintf("wire: %s: HTTP %d", e.Path, e.Status)
}

// Transient reports whether the status indicates a retryable availability
// fault rather than a request the server rejected.
func (e *StatusError) Transient() bool {
	return e.Status >= 500 || e.Status == http.StatusTooManyRequests || e.Status == http.StatusRequestTimeout
}

// sharedTransport is the default round tripper of every Client: one
// process-wide pool, sized so a mediator fanning out to dozens of nodes
// reuses connections instead of redialing per query (the stdlib default
// keeps only 2 idle conns per host). Frame responses are drained through
// their End frame, so the conns actually go back to the pool.
var sharedTransport http.RoundTripper = &http.Transport{
	Proxy:               http.ProxyFromEnvironment,
	MaxIdleConns:        256,
	MaxIdleConnsPerHost: 32,
	IdleConnTimeout:     90 * time.Second,
}

// Client talks to a node or mediator service. A client pointed at a node
// service satisfies mediator.NodeClient and node.PeerFetcher, so a mediator
// can be assembled over remote nodes and remote nodes can exchange halos.
// Safe for concurrent use.
type Client struct {
	base       string
	http       *http.Client
	reqTimeout time.Duration
	proto      Proto

	//turbdb:lockrank wire.client 50
	mu   sync.Mutex
	info *InfoResponse
}

// ClientOption customizes a Client.
type ClientOption func(*Client)

// WithRequestTimeout sets the per-request deadline applied when the
// caller's context has none (0 disables the default bound).
func WithRequestTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.reqTimeout = d }
}

// WithTransport replaces the underlying round tripper — used by chaos
// tests to inject faults, and by deployments needing custom TLS or
// connection pooling.
func WithTransport(rt http.RoundTripper) ClientOption {
	return func(c *Client) { c.http.Transport = rt }
}

// NewClient creates a client for the service at base (e.g.
// "http://127.0.0.1:7070").
func NewClient(base string, opts ...ClientOption) *Client {
	c := &Client{
		base:       base,
		http:       &http.Client{Transport: sharedTransport},
		reqTimeout: DefaultRequestTimeout,
		proto:      ProtoJSON,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// withDeadline applies the client's default request timeout when ctx has
// no deadline of its own. The returned cancel must always be called.
func (c *Client) withDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if _, ok := ctx.Deadline(); !ok && c.reqTimeout > 0 {
		return context.WithTimeout(ctx, c.reqTimeout)
	}
	return context.WithCancel(ctx)
}

// drainClose consumes a bounded remainder of the body and closes it, so
// the underlying connection can be reused. Best-effort on both counts.
func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, maxErrorBody)) //lint:allow droppederr best-effort drain for connection reuse
	_ = body.Close()                                               //lint:allow droppederr close error on a read body is unactionable
}

// call POSTs req and decodes the JSON response into resp, honoring ctx
// for cancellation and deadline.
func (c *Client) call(ctx context.Context, path string, req, resp interface{}) error {
	return c.exchange(ctx, path, req, resp, false)
}

// frameEligible reports whether a query RPC may negotiate the frame
// encoding: the client is in frame mode and the request is untraced
// (frames carry no span trees; traced requests ride JSON).
func (c *Client) frameEligible(traceID string, mint bool) bool {
	return c.proto == ProtoFrame && traceID == "" && !mint
}

// exchange POSTs req and decodes the response into resp. With frames set
// it offers the binary frame encoding (Accept header) and dispatches on
// the response Content-Type, so a JSON-only server transparently falls
// back to the JSON path.
func (c *Client) exchange(ctx context.Context, path string, req, resp interface{}, frames bool) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("wire: marshal: %w", err)
	}
	ctx, cancel := c.withDeadline(ctx)
	defer cancel()
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("wire: %s: %w", path, err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	if frames {
		httpReq.Header.Set("Accept", binproto.MediaType)
	}
	httpResp, err := c.http.Do(httpReq)
	if err != nil {
		return fmt.Errorf("wire: %s: %w", path, err)
	}
	defer drainClose(httpResp.Body)
	if frames && httpResp.StatusCode == http.StatusOK &&
		strings.HasPrefix(httpResp.Header.Get("Content-Type"), binproto.MediaType) {
		return decodeFrames(path, httpResp.Body, resp)
	}
	if httpResp.StatusCode != http.StatusOK {
		data, err := io.ReadAll(io.LimitReader(httpResp.Body, maxErrorBody))
		if err != nil {
			return &StatusError{Path: path, Status: httpResp.StatusCode, Msg: fmt.Sprintf("unreadable error body: %v", err)}
		}
		var e ErrorResponse
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			switch e.Kind {
			case "threshold_too_low":
				return &query.ErrTooManyPoints{Limit: e.Limit, Seen: e.Seen}
			case "over_quota":
				return &sched.ErrOverQuota{Tenant: e.Tenant, Queued: e.Seen, Limit: e.Limit}
			}
			return &StatusError{Path: path, Status: httpResp.StatusCode, Msg: e.Error}
		}
		return &StatusError{Path: path, Status: httpResp.StatusCode}
	}
	if resp != nil {
		start := time.Now()
		cr := &countingReader{r: httpResp.Body}
		if err := json.NewDecoder(cr).Decode(resp); err != nil {
			return fmt.Errorf("wire: %s: decode: %w", path, err)
		}
		if n := pointCount(resp); n >= 0 {
			mDecNSJSON.Add(time.Since(start).Nanoseconds())
			mDecPointsJSON.Add(int64(n))
			mDecBytesJSON.Add(int64(cr.n))
		}
	}
	return nil
}

// Info fetches and caches the service's dataset description.
func (c *Client) Info(ctx context.Context) (InfoResponse, error) {
	c.mu.Lock()
	if c.info != nil {
		info := *c.info
		c.mu.Unlock()
		return info, nil
	}
	c.mu.Unlock()

	ctx, cancel := c.withDeadline(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+PathInfo, nil)
	if err != nil {
		return InfoResponse{}, fmt.Errorf("wire: info: %w", err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return InfoResponse{}, fmt.Errorf("wire: info: %w", err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return InfoResponse{}, &StatusError{Path: PathInfo, Status: resp.StatusCode}
	}
	var info InfoResponse
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return InfoResponse{}, fmt.Errorf("wire: info: %w", err)
	}
	c.mu.Lock()
	c.info = &info
	c.mu.Unlock()
	return info, nil
}

// Describe implements mediator.NodeClient: the service's dataset, grid
// geometry and owned range, fetched (and cached) from /info. Unlike the
// panicking Grid()/Dataset() accessors it replaces, an unreachable service
// is an ordinary error the caller handles at assembly time.
func (c *Client) Describe(ctx context.Context) (node.Description, error) {
	info, err := c.Info(ctx)
	if err != nil {
		return node.Description{}, err
	}
	g, err := grid.New(info.GridN, info.AtomSide, info.Dx)
	if err != nil {
		return node.Description{}, fmt.Errorf("wire: describe: %w", err)
	}
	owned := morton.Range{Lo: morton.Code(info.OwnedLo), Hi: morton.Code(info.OwnedHi)}
	held := rangesFromDTO(info.Held)
	if held == nil {
		held = []morton.Range{owned}
	}
	return node.Description{
		Dataset: info.Dataset,
		Grid:    g,
		Owned:   owned,
		Held:    held,
	}, nil
}

// GetThreshold implements mediator.NodeClient over HTTP. The sim.Proc is
// ignored: wire transports run in real mode.
func (c *Client) GetThreshold(ctx context.Context, _ *sim.Proc, q query.Threshold) (*node.ThresholdResult, error) {
	req := ThresholdRequestFor(q)
	ctx, sp := startRPC(ctx, &req.TraceID, PathThreshold)
	defer sp.End()
	var resp ThresholdResponse
	if err := c.exchange(ctx, PathThreshold, req, &resp, c.frameEligible(req.TraceID, req.Trace)); err != nil {
		return nil, err
	}
	sp.Graft(SpansFromDTO(resp.Spans))
	return &node.ThresholdResult{
		Points:    fromDTO(resp.Points),
		FromCache: resp.FromCache,
		Breakdown: breakdownFromDTO(resp.Breakdown),
	}, nil
}

// GetThresholdBatch implements mediator.NodeClient over HTTP: the
// whole shared-scan batch travels as one request and the node evaluates it
// in one pass. Per-member rejections come back as typed errors in Errs,
// indexed like qs.
func (c *Client) GetThresholdBatch(ctx context.Context, _ *sim.Proc, qs []query.Threshold) (*node.ThresholdBatchResult, error) {
	req := ThresholdBatchRequest{Queries: make([]ThresholdRequest, len(qs))}
	for i, q := range qs {
		req.Queries[i] = ThresholdRequestFor(q)
	}
	ctx, sp := startRPC(ctx, &req.TraceID, PathThresholdBatch)
	defer sp.End()
	var resp ThresholdBatchResponse
	if err := c.exchange(ctx, PathThresholdBatch, req, &resp, c.frameEligible(req.TraceID, false)); err != nil {
		return nil, err
	}
	if len(resp.Items) != len(qs) {
		return nil, faulttol.Permanentf("wire: batch response has %d items, want %d", len(resp.Items), len(qs))
	}
	sp.Graft(SpansFromDTO(resp.Spans))
	out := &node.ThresholdBatchResult{
		Results:      make([]*node.ThresholdResult, len(qs)),
		Errs:         make([]error, len(qs)),
		AtomsScanned: resp.AtomsScanned,
	}
	for i, item := range resp.Items {
		if item.Error != "" {
			if item.Kind == "threshold_too_low" {
				out.Errs[i] = &query.ErrTooManyPoints{Limit: item.Limit, Seen: item.Seen}
			} else {
				out.Errs[i] = faulttol.Permanentf("wire: batch member %d: %s", i, item.Error)
			}
			continue
		}
		out.Results[i] = &node.ThresholdResult{
			Points:     fromDTO(item.Points),
			FromCache:  item.FromCache,
			Breakdown:  breakdownFromDTO(item.Breakdown),
			Shared:     item.Shared,
			ScansSaved: item.ScansSaved,
		}
	}
	return out, nil
}

// GetPDF implements mediator.NodeClient over HTTP.
func (c *Client) GetPDF(ctx context.Context, _ *sim.Proc, q query.PDF) (*node.PDFResult, error) {
	req := PDFRequestFor(q)
	ctx, sp := startRPC(ctx, &req.TraceID, PathPDF)
	defer sp.End()
	var resp PDFResponse
	if err := c.exchange(ctx, PathPDF, req, &resp, c.frameEligible(req.TraceID, req.Trace)); err != nil {
		return nil, err
	}
	sp.Graft(SpansFromDTO(resp.Spans))
	return &node.PDFResult{Counts: resp.Counts, Breakdown: breakdownFromDTO(resp.Breakdown)}, nil
}

// GetTopK implements mediator.NodeClient over HTTP.
func (c *Client) GetTopK(ctx context.Context, _ *sim.Proc, q query.TopK) (*node.TopKResult, error) {
	req := TopKRequestFor(q)
	ctx, sp := startRPC(ctx, &req.TraceID, PathTopK)
	defer sp.End()
	var resp TopKResponse
	if err := c.exchange(ctx, PathTopK, req, &resp, c.frameEligible(req.TraceID, req.Trace)); err != nil {
		return nil, err
	}
	sp.Graft(SpansFromDTO(resp.Spans))
	return &node.TopKResult{Points: fromDTO(resp.Points), Breakdown: breakdownFromDTO(resp.Breakdown)}, nil
}

// ThresholdStats runs a threshold query against a mediator service and
// also returns the coverage annotation of the answer (1 for complete).
// With trace set, the service mints a distributed trace and the response
// carries the assembled span tree (Trace field).
func (c *Client) ThresholdStats(ctx context.Context, q query.Threshold, trace bool) ([]query.ResultPoint, *ThresholdResponse, error) {
	req := ThresholdRequestFor(q)
	req.Trace = trace
	var resp ThresholdResponse
	if err := c.exchange(ctx, PathThreshold, req, &resp, c.frameEligible("", trace)); err != nil {
		return nil, nil, err
	}
	return fromDTO(resp.Points), &resp, nil
}

// FetchAtoms implements node.PeerFetcher over HTTP (remote halo exchange).
func (c *Client) FetchAtoms(ctx context.Context, _ *sim.Proc, rawField string, step int, codes []morton.Code) (map[morton.Code][]byte, error) {
	req := AtomsRequest{Field: rawField, Timestep: step, Codes: make([]uint64, len(codes))}
	for i, code := range codes {
		req.Codes[i] = uint64(code)
	}
	ctx, sp := startRPC(ctx, &req.TraceID, PathAtoms)
	defer sp.End()
	var resp AtomsResponse
	if err := c.call(ctx, PathAtoms, req, &resp); err != nil {
		return nil, err
	}
	sp.Graft(SpansFromDTO(resp.Spans))
	out := make(map[morton.Code][]byte, len(resp.Atoms))
	for code, blob := range resp.Atoms {
		out[morton.Code(code)] = blob
	}
	return out, nil
}

// DropCacheEntry implements mediator.NodeClient over HTTP. ctx bounds the
// round-trip on top of the client's default request timeout.
func (c *Client) DropCacheEntry(ctx context.Context, fieldName string, order, step int) error {
	return c.call(ctx, PathDropCache, DropCacheRequest{Field: fieldName, FDOrder: order, Timestep: step}, nil)
}

// SetProcesses implements mediator.NodeClient over HTTP. ctx bounds the
// round-trip on top of the client's default request timeout.
func (c *Client) SetProcesses(ctx context.Context, p int) error {
	return c.call(ctx, PathSetProcesses, SetProcessesRequest{Processes: p}, nil)
}

// Owned returns the node's primary atom range (nodes only).
func (c *Client) Owned(ctx context.Context) (morton.Range, error) {
	info, err := c.Info(ctx)
	if err != nil {
		return morton.Range{}, err
	}
	return morton.Range{Lo: morton.Code(info.OwnedLo), Hi: morton.Code(info.OwnedHi)}, nil
}

// Held returns every atom range the node's store holds — the primary plus
// any adopted replica ranges (nodes only).
func (c *Client) Held(ctx context.Context) ([]morton.Range, error) {
	info, err := c.Info(ctx)
	if err != nil {
		return nil, err
	}
	if held := rangesFromDTO(info.Held); held != nil {
		return held, nil
	}
	owned, err := c.Owned(ctx)
	if err != nil {
		return nil, err
	}
	return []morton.Range{owned}, nil
}

// PeerSet routes halo-atom fetches to the holding nodes of a cluster of
// node services — the node.PeerFetcher for HTTP deployments. Holdings are
// discovered from each service's /info (primary plus adopted replica
// ranges), so under k-way replication an atom has several candidate peers
// and a fetch fails over to the next holder when one is down. Each peer
// gets its own retry policy and circuit breaker, so one dead peer fails
// fast instead of stalling every halo exchange behind full timeouts.
type PeerSet struct {
	clients []*Client
	self    int
	ft      []*faulttol.Executor
}

// NewPeerSet builds a peer set for node self among clients (self is
// excluded from routing).
func NewPeerSet(clients []*Client, self int) *PeerSet {
	ft := make([]*faulttol.Executor, len(clients))
	for i := range ft {
		ft[i] = &faulttol.Executor{Policy: faulttol.DefaultPolicy(), Breaker: faulttol.NewBreaker(faulttol.BreakerConfig{})}
	}
	return &PeerSet{clients: clients, self: self, ft: ft}
}

// holdersOf lists the peers holding code, primaries first so replicas only
// serve when a primary is down. held[i] is peer i's held ranges.
func (ps *PeerSet) holdersOf(code morton.Code, held [][]morton.Range) []int {
	var primaries, replicas []int
	for i, rs := range held {
		if i == ps.self {
			continue
		}
		for j, r := range rs {
			if r.Contains(code) {
				if j == 0 {
					primaries = append(primaries, i)
				} else {
					replicas = append(replicas, i)
				}
				break
			}
		}
	}
	return append(primaries, replicas...)
}

// FetchAtoms implements node.PeerFetcher over HTTP. Atoms are batched per
// holder; a transient failure re-routes the holder's batch to each atom's
// next replica, and only an atom with every holder down fails the fetch.
func (ps *PeerSet) FetchAtoms(ctx context.Context, p *sim.Proc, rawField string, step int, codes []morton.Code) (map[morton.Code][]byte, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	held := make([][]morton.Range, len(ps.clients))
	for i, c := range ps.clients {
		if i == ps.self {
			continue
		}
		var err error
		if held[i], err = c.Held(ctx); err != nil {
			return nil, err
		}
	}

	type asg struct {
		code    morton.Code
		holders []int
		next    int
	}
	pending := make([]*asg, 0, len(codes))
	unheld := 0
	for _, code := range codes {
		hs := ps.holdersOf(code, held)
		if len(hs) == 0 {
			unheld++
			continue
		}
		pending = append(pending, &asg{code: code, holders: hs})
	}
	if unheld > 0 {
		return nil, faulttol.Permanentf("wire: %d halo atoms owned by no peer", unheld)
	}

	out := make(map[morton.Code][]byte, len(codes))
	for len(pending) > 0 {
		byPeer := make(map[int][]*asg)
		for _, a := range pending {
			byPeer[a.holders[a.next]] = append(byPeer[a.holders[a.next]], a)
		}
		pending = pending[:0]
		for peer, asgs := range byPeer {
			c := ps.clients[peer]
			mine := make([]morton.Code, len(asgs))
			for i, a := range asgs {
				mine[i] = a.code
			}
			var blobs map[morton.Code][]byte
			err := ps.ft[peer].Do(ctx, func(ctx context.Context) error {
				var ferr error
				blobs, ferr = c.FetchAtoms(ctx, p, rawField, step, mine)
				return ferr
			})
			if err != nil {
				if !faulttol.Transient(err) {
					return nil, fmt.Errorf("wire: peer %d: %w", peer, err)
				}
				for _, a := range asgs {
					a.next++
					if a.next >= len(a.holders) {
						return nil, fmt.Errorf("wire: halo atom %v unavailable on every replica peer: %w", a.code, err)
					}
					pending = append(pending, a)
				}
				continue
			}
			for _, a := range asgs {
				blob, ok := blobs[a.code]
				if !ok {
					return nil, faulttol.Permanentf("wire: peer %d omitted atom %v", peer, a.code)
				}
				out[a.code] = blob
			}
		}
	}
	return out, nil
}
