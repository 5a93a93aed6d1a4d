package wire

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"slices"
	"strings"
	"time"

	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/node"
	"github.com/turbdb/turbdb/internal/obs"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sched"
	"github.com/turbdb/turbdb/internal/wire/binproto"
)

// This file is the response half of the transport: one result envelope,
// the two codecs that carry it, and the one table that spells errors.
// Requests always travel as JSON — they are tiny and the frozen request
// DTOs double as the debug surface — while every RESPONSE is negotiated:
// a client offers frames with Accept: application/x-turbdb-frame, a server
// that takes the offer says so in Content-Type, and the client picks its
// decoder from that header. A pre-protocol or WithJSONOnly server just
// answers JSON, so every pairing interoperates, traced or not: spans ride
// both encodings (binary_test.go proves the answers bit-for-bit equal).
// Over frames ALL outcomes are HTTP 200: a failure is a typed error frame
// closed by End{Items: 0} that carries the faulttol retry class end-to-end,
// where a JSON client infers the class from the status.

// Proto selects the response encoding a client asks for.
type Proto string

const (
	// ProtoJSON is the frozen debug/compat encoding (the default).
	ProtoJSON Proto = "json"
	// ProtoFrame is the binary streaming frame encoding.
	ProtoFrame Proto = "frame"
)

// ParseProto parses a -proto flag value ("" means the JSON default).
func ParseProto(s string) (Proto, error) {
	switch Proto(s) {
	case ProtoJSON, ProtoFrame:
		return Proto(s), nil
	case "":
		return ProtoJSON, nil
	}
	return "", faulttol.Permanentf("wire: unknown protocol %q (want %q or %q)", s, ProtoJSON, ProtoFrame)
}

// WithProto selects the response encoding the client negotiates for query
// RPCs (default ProtoJSON). With ProtoFrame, a server that does not speak
// frames transparently falls back to JSON.
func WithProto(p Proto) ClientOption {
	return func(c *Client) { c.proto = p }
}

// ServerOption customizes a NodeServer or MediatorServer.
type ServerOption func(*serverConfig)

// serverConfig is the shared per-server protocol policy.
type serverConfig struct{ jsonOnly bool }

// WithJSONOnly disables the binary frame encoding: the server answers
// every request as JSON regardless of the Accept header. Debug/compat
// mode for the daemons (-json-only).
func WithJSONOnly() ServerOption {
	return func(cfg *serverConfig) { cfg.jsonOnly = true }
}

// codecFor picks the response encoding of one request: frames when the
// client offers them and the server allows them, JSON otherwise.
func (cfg serverConfig) codecFor(r *http.Request) codec {
	if !cfg.jsonOnly && strings.Contains(r.Header.Get("Accept"), binproto.MediaType) {
		return frameCodec{}
	}
	return jsonCodec{}
}

// result is what one RPC answers, whatever the encoding. A solo query or
// a halo fetch is one item; a shared-scan batch is one item per member, in
// request order; the admin calls answer with none.
type result struct {
	items        []item
	atomsScanned int // the batch-wide physical scan count
	// The serving side's stage spans of a traced request, in the wire time
	// base: spans for the caller to graft under its RPC span, or trace, the
	// whole tree of a request that asked for one (Trace).
	spans []SpanDTO
	trace *TraceDTO
}

// item is one logical answer — the points of the embedded node result, PDF
// counts or atom blobs, with the accounting that closes them — or the
// typed rejection of a batch member.
type item struct {
	node.ThresholdResult
	counts []int64
	atoms  map[morton.Code][]byte
	err    error
	// Mediator annotations: coverage and failed nodes of a degraded
	// answer, the scheduler's queue wait and shared-scan flag.
	coverage    float64
	failed      int
	queueWaitMS float64
	sharedScan  bool
}

func soloResult(it item) *result { return &result{items: []item{it}} }

// solo returns the single item of a non-batch answer.
func (r *result) solo(path string) (*item, error) {
	if len(r.items) != 1 {
		return nil, faulttol.Permanentf("wire: %s: response carried %d items, want 1", path, len(r.items))
	}
	return &r.items[0], r.items[0].err
}

// points sizes the answer for the per-point codec metrics.
func (r *result) points() int {
	n := 0
	for i := range r.items {
		n += len(r.items[i].Points) + len(r.items[i].counts)
	}
	return n
}

// codec is one response encoding: encode writes a whole HTTP response —
// res, or the failure err — and decode reads one back.
type codec interface {
	encode(w http.ResponseWriter, path string, res *result, err error)
	decode(path string, status int, body io.Reader) (*result, error)
}

// describe is the error table: a Go error's wire kind, details and retry
// class — an ErrorResponse and a batch item's error fields spell the same
// vocabulary as the error frame — plus the HTTP status the JSON encoding
// answers with. typedError is its inverse.
func describe(err error) (binproto.ErrorFrame, int) {
	ef := binproto.ErrorFrame{Class: binproto.ClassPermanent, Msg: err.Error()}
	var tooMany *query.ErrTooManyPoints
	var overQuota *sched.ErrOverQuota
	switch {
	case errors.As(err, &tooMany):
		ef.Kind, ef.Seen, ef.Limit = "threshold_too_low", tooMany.Seen, tooMany.Limit
		return ef, http.StatusRequestEntityTooLarge
	case errors.As(err, &overQuota):
		ef.Class, ef.Kind = binproto.ClassOverQuota, "over_quota"
		ef.Tenant, ef.Seen, ef.Limit = overQuota.Tenant, overQuota.Queued, overQuota.Limit
		return ef, http.StatusTooManyRequests
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The query was abandoned or timed out, not malformed: retryable.
		ef.Class, ef.Kind = binproto.ClassTransient, "unavailable"
		return ef, http.StatusServiceUnavailable
	case faulttol.Transient(err):
		// So is any failure the node itself classified transient: a halo
		// peer down on every replica, a truncated downstream stream.
		ef.Class = binproto.ClassTransient
		return ef, http.StatusServiceUnavailable
	}
	return ef, http.StatusBadRequest
}

// typedError rebuilds the domain error a decoded kind stands for, or nil:
// then the failure comes back as the decoding codec's own carrier, a
// StatusError classified by its status or a RemoteError by its class.
func typedError(ef binproto.ErrorFrame) error {
	switch ef.Kind {
	case "threshold_too_low":
		return &query.ErrTooManyPoints{Limit: ef.Limit, Seen: ef.Seen}
	case "over_quota":
		return &sched.ErrOverQuota{Tenant: ef.Tenant, Queued: ef.Seen, Limit: ef.Limit}
	}
	return nil
}

// RemoteError is a failure decoded from a binary error frame whose kind
// has no dedicated domain error. It keeps the whole frame, so
// faulttol.Transient classifies it exactly as the origin did.
type RemoteError struct {
	Path string
	binproto.ErrorFrame
}

// Error implements error.
func (e *RemoteError) Error() string {
	if e.Kind != "" {
		return fmt.Sprintf("wire: %s: %s: %s", e.Path, e.Kind, e.Msg)
	}
	return fmt.Sprintf("wire: %s: %s", e.Path, e.Msg)
}

// Transient reports the retry class the error frame carried.
func (e *RemoteError) Transient() bool { return e.Class == binproto.ClassTransient }

// Encode/decode accounting of query answers, split by encoding so /metrics
// exposes ns/point and bytes/point for both protocols side by side.
type counters struct{ ns, points, bytes *obs.Counter }

var (
	encFrame = counters{
		obs.Default().Counter(`turbdb_wire_encode_ns_total{proto="frame"}`),
		obs.Default().Counter(`turbdb_wire_encode_points_total{proto="frame"}`),
		obs.Default().Counter(`turbdb_wire_encode_bytes_total{proto="frame"}`),
	}
	encJSON = counters{
		obs.Default().Counter(`turbdb_wire_encode_ns_total{proto="json"}`),
		obs.Default().Counter(`turbdb_wire_encode_points_total{proto="json"}`),
		obs.Default().Counter(`turbdb_wire_encode_bytes_total{proto="json"}`),
	}
	decFrame = counters{
		obs.Default().Counter(`turbdb_wire_decode_ns_total{proto="frame"}`),
		obs.Default().Counter(`turbdb_wire_decode_points_total{proto="frame"}`),
		obs.Default().Counter(`turbdb_wire_decode_bytes_total{proto="frame"}`),
	}
	decJSON = counters{
		obs.Default().Counter(`turbdb_wire_decode_ns_total{proto="json"}`),
		obs.Default().Counter(`turbdb_wire_decode_points_total{proto="json"}`),
		obs.Default().Counter(`turbdb_wire_decode_bytes_total{proto="json"}`),
	}
	mWireFrames = obs.Default().Counter(`turbdb_wire_frames_total`)
	mWireChunks = obs.Default().Counter(`turbdb_wire_chunks_total`)
)

// note records one finished encode or decode of an answer that carries
// points: halo, admin and empty exchanges would only skew bytes per point.
func (c counters) note(start time.Time, res *result, bytes int) {
	if n := res.points(); n > 0 {
		c.ns.Add(time.Since(start).Nanoseconds())
		c.points.Add(int64(n))
		c.bytes.Add(int64(bytes))
	}
}

// jsonCodec is the frozen v1 encoding: the only code that builds and reads
// the response bodies of dto.go, and the only code that knows which HTTP
// status a failure answers with.
type jsonCodec struct{}

func (jsonCodec) encode(w http.ResponseWriter, path string, res *result, err error) {
	start := time.Now()
	if err != nil {
		ef, status := describe(err)
		writeJSON(w, status, ErrorResponse{Error: ef.Msg, Kind: ef.Kind, Seen: ef.Seen, Limit: ef.Limit, Tenant: ef.Tenant})
		return
	}
	var n int
	switch body := jsonBody(path, res); body.(type) {
	case ThresholdResponse, TopKResponse:
		n = writePointsJSON(w, body, res.items[0].Points)
	default:
		n = writeJSON(w, http.StatusOK, body)
	}
	encJSON.note(start, res, n)
}

// writeJSON writes one JSON response and returns its body size.
// (Encoder.Encode would buffer the whole body before its one Write too.)
func writeJSON(w http.ResponseWriter, status int, body any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	data, err := json.Marshal(body)
	if err == nil {
		_, err = w.Write(append(data, '\n'))
	}
	if err != nil {
		// The status line is already out: all that is left is to log; the
		// truncated body fails loudly at the decoder.
		log.Printf("wire: encoding %T: %v", body, err)
	}
	return len(data) + 1
}

// thresholdDTO is the threshold response without its points (the encoder
// adds them; ThresholdStats hands them to its caller separately).
func thresholdDTO(res *result, it *item) ThresholdResponse {
	return ThresholdResponse{
		FromCache: it.FromCache, Breakdown: breakdownToDTO(it.Breakdown),
		Coverage: it.coverage, Failed: it.failed, QueueWaitMS: it.queueWaitMS,
		SharedScan: it.sharedScan, ScansSaved: it.ScansSaved,
		Spans: res.spans, Trace: res.trace,
	}
}

// jsonBody builds the response DTO of path. A solo threshold or top-k DTO
// leaves its Points nil: writePointsJSON splices them in.
func jsonBody(path string, res *result) any {
	if path == PathThresholdBatch {
		out := ThresholdBatchResponse{
			Items: make([]BatchItemDTO, len(res.items)), AtomsScanned: res.atomsScanned, Spans: res.spans,
		}
		for i := range res.items {
			it := &res.items[i]
			if it.err != nil {
				ef, _ := describe(it.err)
				out.Items[i] = BatchItemDTO{Error: ef.Msg, Kind: ef.Kind, Seen: ef.Seen, Limit: ef.Limit}
				continue
			}
			out.Items[i] = BatchItemDTO{
				Points: toDTO(it.Points), FromCache: it.FromCache, Breakdown: breakdownToDTO(it.Breakdown),
				Shared: it.Shared, ScansSaved: it.ScansSaved,
			}
		}
		return out
	}
	if len(res.items) == 1 {
		switch it := &res.items[0]; path {
		case PathThreshold:
			return thresholdDTO(res, it)
		case PathTopK:
			return TopKResponse{
				Breakdown: breakdownToDTO(it.Breakdown),
				Coverage:  it.coverage, Failed: it.failed, Spans: res.spans, Trace: res.trace,
			}
		case PathPDF:
			return PDFResponse{
				Counts: it.counts, Breakdown: breakdownToDTO(it.Breakdown),
				Coverage: it.coverage, Failed: it.failed, FromCache: it.FromCache,
				Spans: res.spans, Trace: res.trace,
			}
		case PathAtoms:
			atoms := make(map[uint64][]byte, len(it.atoms))
			for c, b := range it.atoms {
				atoms[uint64(c)] = b
			}
			return AtomsResponse{Atoms: atoms, Spans: res.spans}
		}
	}
	return struct{}{} // the admin calls
}

func (jsonCodec) decode(path string, status int, body io.Reader) (*result, error) {
	if status != http.StatusOK {
		// A body that is no ErrorResponse (a proxy's page, a cut connection)
		// leaves e empty and the status alone classifies the failure.
		var e ErrorResponse
		_ = json.NewDecoder(io.LimitReader(body, maxErrorBody)).Decode(&e) //lint:allow droppederr see above
		if err := typedError(binproto.ErrorFrame{Kind: e.Kind, Tenant: e.Tenant, Seen: e.Seen, Limit: e.Limit}); err != nil && e.Error != "" {
			return nil, err
		}
		return nil, &StatusError{Path: path, Status: status, Msg: e.Error}
	}
	start := time.Now()
	res := &result{}
	var n int64
	var err error
	switch path {
	case PathThreshold, PathTopK:
		// A top-k response is a threshold response minus cache and scheduler keys.
		var in ThresholdResponse
		var pts []query.ResultPoint
		pts, n, err = decodePoints(body, &in)
		res = soloResult(item{
			ThresholdResult: node.ThresholdResult{
				Points: pts, FromCache: in.FromCache,
				Breakdown: breakdownFromDTO(in.Breakdown), ScansSaved: in.ScansSaved,
			},
			coverage: in.Coverage, failed: in.Failed, queueWaitMS: in.QueueWaitMS, sharedScan: in.SharedScan,
		})
		res.spans, res.trace = in.Spans, in.Trace
	case PathPDF:
		var in PDFResponse
		n, err = decodeJSON(body, &in)
		res = soloResult(item{counts: in.Counts, coverage: in.Coverage, failed: in.Failed})
		res.items[0].Breakdown, res.items[0].FromCache = breakdownFromDTO(in.Breakdown), in.FromCache
		res.spans, res.trace = in.Spans, in.Trace
	case PathAtoms:
		var in AtomsResponse
		n, err = decodeJSON(body, &in)
		atoms := make(map[morton.Code][]byte, len(in.Atoms))
		for c, b := range in.Atoms {
			atoms[morton.Code(c)] = b
		}
		res = soloResult(item{atoms: atoms})
		res.spans = in.Spans
	case PathThresholdBatch:
		var in ThresholdBatchResponse
		n, err = decodeJSON(body, &in)
		res.atomsScanned = in.AtomsScanned
		res.spans = in.Spans
		res.items = make([]item, len(in.Items))
		for i, d := range in.Items {
			if d.Error == "" {
				res.items[i].ThresholdResult = node.ThresholdResult{
					Points: fromDTO(d.Points), FromCache: d.FromCache, Breakdown: breakdownFromDTO(d.Breakdown),
					Shared: d.Shared, ScansSaved: d.ScansSaved,
				}
				continue
			}
			res.items[i].err = typedError(binproto.ErrorFrame{Kind: d.Kind, Seen: d.Seen, Limit: d.Limit})
			if res.items[i].err == nil {
				res.items[i].err = faulttol.Permanentf("wire: %s: batch member %d: %s", path, i, d.Error)
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("wire: %s: decode: %w", path, err)
	}
	decJSON.note(start, res, int(n))
	return res, nil
}

// frameCodec is the binary encoding: the only code that knows the binproto
// stream grammar. Per item it writes points, counts or atoms chunks closed
// by a stats frame — or one error frame for a rejected batch member — then
// the spans of a traced request, then the end frame with the item count.
// Answers stream chunk by chunk (node.ChunkPoints) and decode straight
// into result points: neither side materializes an encoded copy.
type frameCodec struct{}

func (frameCodec) encode(w http.ResponseWriter, path string, res *result, err error) {
	start := time.Now()
	w.Header().Set("Content-Type", binproto.MediaType)
	bw := binproto.NewWriter(w)
	var wErr error
	if err != nil {
		// A whole-request failure is a lone error frame under End{Items: 0}.
		res = &result{}
		ef, _ := describe(err)
		wErr = bw.Error(ef)
	}
	for i := 0; i < len(res.items) && wErr == nil; i++ {
		wErr = writeItem(bw, &res.items[i])
	}
	if wErr == nil {
		id, dtos := "", res.spans
		if res.trace != nil {
			id, dtos = res.trace.ID, res.trace.Spans
		}
		spans := make([]binproto.Span, len(dtos))
		for i, d := range dtos {
			spans[i] = binproto.Span(d)
		}
		wErr = bw.Spans(id, spans)
	}
	if wErr == nil {
		wErr = bw.End(binproto.End{Items: len(res.items), AtomsScanned: res.atomsScanned})
	}
	if wErr != nil {
		// The 200 status line is out; the cut stream fails loudly at the decoder.
		log.Printf("wire: %s: encoding frame response: %v", path, wErr)
		return
	}
	mWireFrames.Add(int64(bw.Frames()))
	mWireChunks.Add(int64(bw.Chunks()))
	if err == nil {
		encFrame.note(start, res, bw.BytesWritten())
	}
}

func writeItem(bw *binproto.Writer, it *item) error {
	if it.err != nil {
		ef, _ := describe(it.err)
		return bw.Error(ef)
	}
	if err := node.ChunkPoints(it.Points, binproto.MaxChunk, bw.Points); err != nil {
		return err
	}
	if err := bw.Counts(it.counts); err != nil {
		return err
	}
	codes, blobs := make([]uint64, 0, len(it.atoms)), make([][]byte, 0, len(it.atoms))
	for c, b := range it.atoms {
		codes, blobs = append(codes, uint64(c)), append(blobs, b)
	}
	if err := bw.Atoms(codes, blobs); err != nil {
		return err
	}
	// The millisecond floats are breakdownToDTO's, so a frame round trip
	// yields the same float64 bits as the JSON path.
	b := breakdownToDTO(it.Breakdown)
	return bw.Stats(binproto.Stats{
		FromCache: it.FromCache, SharedScan: it.sharedScan,
		CacheLookupMS: b.CacheLookupMS, IOMS: b.IOMS, ComputeMS: b.ComputeMS,
		CacheUpdateMS: b.CacheUpdateMS, TotalMS: b.TotalMS,
		AtomsRead: b.AtomsRead, HaloAtoms: b.HaloAtoms,
		PointsExamined: b.PointsExamined, AtomsSkipped: b.AtomsSkipped,
		Coverage: it.coverage, Failed: it.failed, QueueWaitMS: it.queueWaitMS,
		ScansSaved: it.ScansSaved, Shared: it.Shared,
	})
}

func (frameCodec) decode(path string, _ int, body io.Reader) (*result, error) {
	start := time.Now()
	r := binproto.NewReader(body)
	res := &result{}
	var cur item
	var end *binproto.End
	for {
		f, err := r.Next() // read on past End: the Reader rejects a stream that goes on
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("wire: %s: %w", path, err)
		}
		switch fr := f.(type) {
		case *binproto.Points:
			cur.Points = slices.Grow(cur.Points, len(fr.Codes))
			for i, c := range fr.Codes {
				cur.Points = append(cur.Points, query.ResultPoint{Code: morton.Code(c), Value: fr.Values[i]})
			}
		case *binproto.Counts:
			cur.counts = append(cur.counts, fr.Counts...)
		case *binproto.Atoms:
			if cur.atoms == nil {
				cur.atoms = make(map[morton.Code][]byte, len(fr.Codes))
			}
			for i, c := range fr.Codes {
				if _, dup := cur.atoms[morton.Code(c)]; dup {
					return nil, faulttol.Permanentf("wire: %s: frame stream carries atom %d twice", path, c)
				}
				cur.atoms[morton.Code(c)] = fr.Blobs[i]
			}
		case *binproto.Stats:
			cur.Breakdown = breakdownFromDTO(BreakdownDTO{
				CacheLookupMS: fr.CacheLookupMS, IOMS: fr.IOMS, ComputeMS: fr.ComputeMS,
				CacheUpdateMS: fr.CacheUpdateMS, TotalMS: fr.TotalMS,
				AtomsRead: fr.AtomsRead, HaloAtoms: fr.HaloAtoms,
				PointsExamined: fr.PointsExamined, AtomsSkipped: fr.AtomsSkipped,
			})
			cur.FromCache, cur.sharedScan = fr.FromCache, fr.SharedScan
			cur.coverage, cur.failed, cur.queueWaitMS = fr.Coverage, fr.Failed, fr.QueueWaitMS
			cur.ScansSaved, cur.Shared = fr.ScansSaved, fr.Shared
			res.items = append(res.items, cur)
			cur = item{}
		case *binproto.ErrorFrame:
			if cur.err = typedError(*fr); cur.err == nil {
				cur.err = &RemoteError{Path: path, ErrorFrame: *fr}
			}
			res.items = append(res.items, cur)
			cur = item{}
		case *binproto.Spans:
			dst := &res.spans
			if fr.TraceID != "" {
				if res.trace == nil {
					res.trace = &TraceDTO{ID: fr.TraceID}
				}
				dst = &res.trace.Spans
			}
			for _, s := range fr.Spans {
				*dst = append(*dst, SpanDTO(s))
			}
		case *binproto.End:
			end = fr
		}
	}
	if end == nil {
		// The connection died mid-stream: retryable, unlike a malformed frame.
		return nil, faulttol.Transientf("wire: %s: frame stream truncated before end frame", path)
	}
	if len(cur.Points)+len(cur.counts)+len(cur.atoms) > 0 {
		return nil, faulttol.Permanentf("wire: %s: frame stream ended with an unterminated item", path)
	}
	// A lone error item under End{Items: 0} is a whole-request failure.
	if end.Items == 0 && len(res.items) == 1 && res.items[0].err != nil {
		return nil, res.items[0].err
	}
	if end.Items != len(res.items) {
		return nil, faulttol.Permanentf("wire: %s: end frame declares %d items, stream carried %d", path, end.Items, len(res.items))
	}
	res.atomsScanned = end.AtomsScanned
	decFrame.note(start, res, r.BytesRead())
	return res, nil
}
