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
	"github.com/turbdb/turbdb/internal/sim"
	"github.com/turbdb/turbdb/internal/wire/binproto"
)

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

// exchange is the one client round trip: POST req as JSON, offering frames
// when the client is in frame mode — and always on the halo hop, whose
// blobs nobody reads — then decode with the codec the response
// Content-Type names, so a server that declines falls back transparently.
func (c *Client) exchange(ctx context.Context, path string, req any) (*result, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("wire: marshal: %w", err)
	}
	ctx, cancel := c.withDeadline(ctx)
	defer cancel()
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("wire: %s: %w", path, err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	if c.proto == ProtoFrame || path == PathAtoms {
		httpReq.Header.Set("Accept", binproto.MediaType)
	}
	httpResp, err := c.http.Do(httpReq)
	if err != nil {
		return nil, fmt.Errorf("wire: %s: %w", path, err)
	}
	defer drainClose(httpResp.Body)
	var cd codec = jsonCodec{}
	if strings.HasPrefix(httpResp.Header.Get("Content-Type"), binproto.MediaType) {
		cd = frameCodec{}
	}
	return cd.decode(path, httpResp.StatusCode, httpResp.Body)
}

// rpc is exchange under a client-side span: the request is stamped with
// the context's trace ID (through traceID, a field of req), so the serving
// node records its stage spans under the same distributed trace, and the
// spans it answers with are grafted under the RPC span. A no-op when ctx
// carries no trace.
func (c *Client) rpc(ctx context.Context, path string, req any, traceID *string) (*result, error) {
	*traceID = obs.TraceFrom(ctx).ID()
	ctx, sp := obs.StartSpan(ctx, "rpc:"+path)
	defer sp.End()
	res, err := c.exchange(ctx, path, req)
	if err == nil {
		sp.Graft(SpansFromDTO(res.spans))
	}
	return res, err
}

// soloRPC is rpc for the calls that answer with exactly one item.
func (c *Client) soloRPC(ctx context.Context, path string, req any, traceID *string) (*item, error) {
	res, err := c.rpc(ctx, path, req, traceID)
	if err != nil {
		return nil, err
	}
	return res.solo(path)
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
// geometry and owned range, fetched (and cached) from /info; an unreachable
// service is an ordinary error the caller handles at assembly time.
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
	it, err := c.soloRPC(ctx, PathThreshold, &req, &req.TraceID)
	if err != nil {
		return nil, err
	}
	return &it.ThresholdResult, nil
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
	res, err := c.rpc(ctx, PathThresholdBatch, &req, &req.TraceID)
	if err != nil {
		return nil, err
	}
	if len(res.items) != len(qs) {
		return nil, faulttol.Permanentf("wire: batch response has %d items, want %d", len(res.items), len(qs))
	}
	out := &node.ThresholdBatchResult{
		Results:      make([]*node.ThresholdResult, len(qs)),
		Errs:         make([]error, len(qs)),
		AtomsScanned: res.atomsScanned,
	}
	for i := range res.items {
		if out.Errs[i] = res.items[i].err; out.Errs[i] == nil {
			out.Results[i] = &res.items[i].ThresholdResult
		}
	}
	return out, nil
}

// GetPDF implements mediator.NodeClient over HTTP.
func (c *Client) GetPDF(ctx context.Context, _ *sim.Proc, q query.PDF) (*node.PDFResult, error) {
	req := PDFRequestFor(q)
	it, err := c.soloRPC(ctx, PathPDF, &req, &req.TraceID)
	if err != nil {
		return nil, err
	}
	return &node.PDFResult{Counts: it.counts, Breakdown: it.Breakdown}, nil
}

// GetTopK implements mediator.NodeClient over HTTP.
func (c *Client) GetTopK(ctx context.Context, _ *sim.Proc, q query.TopK) (*node.TopKResult, error) {
	req := TopKRequestFor(q)
	it, err := c.soloRPC(ctx, PathTopK, &req, &req.TraceID)
	if err != nil {
		return nil, err
	}
	return &node.TopKResult{Points: it.Points, Breakdown: it.Breakdown}, nil
}

// ThresholdStats runs a threshold query against a mediator service and
// also returns the answer's annotations — coverage (1 for complete),
// breakdown, scheduler accounting — as the response DTO, whatever encoding
// carried them (its Points stay nil: they are the first result). With
// trace set, the service mints a distributed trace and the response
// carries the assembled span tree (Trace field).
func (c *Client) ThresholdStats(ctx context.Context, q query.Threshold, trace bool) ([]query.ResultPoint, *ThresholdResponse, error) {
	req := ThresholdRequestFor(q)
	req.Trace = trace
	res, err := c.exchange(ctx, PathThreshold, req)
	if err != nil {
		return nil, nil, err
	}
	it, err := res.solo(PathThreshold)
	if err != nil {
		return nil, nil, err
	}
	resp := thresholdDTO(res, it)
	return it.Points, &resp, nil
}

// FetchAtoms implements node.PeerFetcher over HTTP (remote halo exchange).
// When ctx names the parts a scan reads (node.HaloParts), it asks for just
// those: the node answers each atom with its band, and a node that ignores
// the boxes with the whole atom.
func (c *Client) FetchAtoms(ctx context.Context, _ *sim.Proc, rawField string, step int, codes []morton.Code) (map[morton.Code][]byte, error) {
	req := AtomsRequest{Field: rawField, Timestep: step, Codes: make([]uint64, len(codes))}
	for i, code := range codes {
		req.Codes[i] = uint64(code)
	}
	if side, parts := node.HaloParts(ctx); parts != nil && side <= maxBoxSide {
		whole := grid.Box{Hi: grid.Point{X: side, Y: side, Z: side}}
		req.Boxes = make([]byte, 0, boxBytes*len(codes))
		for _, code := range codes {
			b, ok := parts[code]
			if !ok {
				b = whole
			}
			req.Boxes = appendBox(req.Boxes, b)
		}
	}
	it, err := c.soloRPC(ctx, PathAtoms, &req, &req.TraceID)
	if err != nil {
		return nil, err
	}
	return it.atoms, nil
}

// DropCacheEntry implements mediator.NodeClient over HTTP. ctx bounds the
// round-trip on top of the client's default request timeout.
func (c *Client) DropCacheEntry(ctx context.Context, fieldName string, order, step int) error {
	_, err := c.exchange(ctx, PathDropCache, DropCacheRequest{Field: fieldName, FDOrder: order, Timestep: step})
	return err
}

// SetProcesses implements mediator.NodeClient over HTTP. ctx bounds the
// round-trip on top of the client's default request timeout.
func (c *Client) SetProcesses(ctx context.Context, p int) error {
	_, err := c.exchange(ctx, PathSetProcesses, SetProcessesRequest{Processes: p})
	return err
}

// Owned returns the node's primary atom range (nodes only).
func (c *Client) Owned(ctx context.Context) (morton.Range, error) {
	d, err := c.Describe(ctx)
	return d.Owned, err
}

// Held returns every atom range the node's store holds — the primary plus
// any adopted replica ranges (nodes only).
func (c *Client) Held(ctx context.Context) ([]morton.Range, error) {
	d, err := c.Describe(ctx)
	return d.Held, err
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
// next replica (faulttol.Failover runs the rounds), and only an atom with
// every holder down fails the fetch. A peer whose holdings cannot be read
// holds nothing for this fetch.
func (ps *PeerSet) FetchAtoms(ctx context.Context, p *sim.Proc, rawField string, step int, codes []morton.Code) (map[morton.Code][]byte, error) {
	held := make([][]morton.Range, len(ps.clients))
	var unreadable error // the first peer whose holdings could not be read
	for i, c := range ps.clients {
		if i == ps.self {
			continue
		}
		var err error
		if held[i], err = c.Held(ctx); err != nil && unreadable == nil {
			unreadable = fmt.Errorf("wire: peer %d: %w", i, err)
		}
	}

	holders := make([][]int, len(codes))
	unheld := 0
	for i, code := range codes {
		if holders[i] = ps.holdersOf(code, held); len(holders[i]) == 0 {
			unheld++
		}
	}
	if unheld > 0 {
		if unreadable != nil {
			return nil, fmt.Errorf("wire: %d halo atoms unavailable on every replica peer: %w", unheld, unreadable)
		}
		return nil, faulttol.Permanentf("wire: %d halo atoms owned by no peer", unheld)
	}

	out := make(map[morton.Code][]byte, len(codes))
	spent, _, err := faulttol.Failover(holders, func(groups []faulttol.Group) []error {
		errs := make([]error, len(groups))
		for gi, g := range groups {
			mine := make([]morton.Code, len(g.Keys))
			for i, k := range g.Keys {
				mine[i] = codes[k]
			}
			var blobs map[morton.Code][]byte
			err := ps.ft[g.Holder].Do(ctx, func(ctx context.Context) error {
				var ferr error
				blobs, ferr = ps.clients[g.Holder].FetchAtoms(ctx, p, rawField, step, mine)
				return ferr
			})
			if err != nil {
				if !faulttol.Transient(err) {
					err = fmt.Errorf("wire: peer %d: %w", g.Holder, err)
				}
				errs[gi] = err
				continue
			}
			for _, c := range mine {
				blob, ok := blobs[c]
				if !ok {
					errs[gi] = faulttol.Permanentf("wire: peer %d omitted atom %v", g.Holder, c)
					break
				}
				out[c] = blob
			}
		}
		return errs
	})
	if err != nil {
		return nil, err
	}
	if len(spent) > 0 {
		return nil, fmt.Errorf("wire: halo atom %v unavailable on every replica peer: %w", codes[spent[0].Key], spent[0].Err)
	}
	return out, nil
}
