package wire

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"time"

	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/mediator"
	"github.com/turbdb/turbdb/internal/node"
	"github.com/turbdb/turbdb/internal/obs"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sched"
	"github.com/turbdb/turbdb/internal/wire/binproto"
)

// This file integrates the binary frame encoding (internal/wire/binproto)
// into the HTTP transport. Requests always travel as JSON — they are tiny
// and the frozen request DTOs double as the debug surface — while query
// RESPONSES (threshold, batch, PDF, top-k) negotiate per request:
//
//	client sends   Accept: application/x-turbdb-frame
//	server replies Content-Type: application/x-turbdb-frame + frame stream
//
// Either side may decline: a pre-protocol server ignores the Accept
// header and answers JSON, a server started WithJSONOnly does the same,
// and a JSON client never sends the header. The client dispatches on the
// response Content-Type, so every pairing (JSON↔frame in both roles)
// interoperates — the differential suites in binary_test.go prove the
// answers bit-for-bit equal.
//
// Traced requests (TraceID set or Trace requested) always ride JSON:
// frames carry no span trees by design — tracing is the debug flow on the
// debug encoding — and both ends enforce it, so a frame stream and a span
// graft can never coexist.
//
// When frames are negotiated, ALL outcomes are HTTP 200 with a frame
// stream: failures travel as a typed error frame closed by End{Items: 0},
// carrying the faulttol retry class end-to-end, so a binary client
// classifies errors exactly as the server did instead of inferring a
// class from an HTTP status code.

// Proto selects the response encoding a client asks for.
type Proto string

// Response encodings.
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
type serverConfig struct {
	jsonOnly bool
}

// WithJSONOnly disables the binary frame encoding: the server answers
// every request as JSON regardless of the Accept header. Debug/compat
// mode for the daemons (-json-only).
func WithJSONOnly() ServerOption {
	return func(cfg *serverConfig) { cfg.jsonOnly = true }
}

// acceptsFrames reports whether the request's Accept header asks for the
// binary frame encoding.
func acceptsFrames(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), binproto.MediaType)
}

// wantFrames reports whether a decoded query request negotiates frame
// responses: the client asked, the server allows it, and the request is
// untraced (traced requests always ride JSON).
func (cfg serverConfig) wantFrames(r *http.Request, traceID string, mint bool) bool {
	return !cfg.jsonOnly && traceID == "" && !mint && acceptsFrames(r)
}

// fail writes a pre-negotiation failure (e.g. an undecodable body); the
// encoding is chosen from the Accept header alone.
func (cfg serverConfig) fail(w http.ResponseWriter, r *http.Request, err error) {
	writeNegotiatedError(w, !cfg.jsonOnly && acceptsFrames(r), err)
}

// writeNegotiatedError routes a handler failure to the negotiated
// encoding: a typed error frame stream, or the JSON status path.
func writeNegotiatedError(w http.ResponseWriter, frames bool, err error) {
	if frames {
		writeFrameError(w, err)
		return
	}
	writeError(w, err)
}

// Wire-level encode/decode accounting, split by encoding so /metrics
// exposes ns/point and bytes/point for both protocols side by side
// (scripts/bench.sh captures the same ratios offline into BENCH_10.json).
var (
	mEncNSFrame     = obs.Default().Counter(`turbdb_wire_encode_ns_total{proto="frame"}`)
	mEncPointsFrame = obs.Default().Counter(`turbdb_wire_encode_points_total{proto="frame"}`)
	mEncBytesFrame  = obs.Default().Counter(`turbdb_wire_encode_bytes_total{proto="frame"}`)
	mEncNSJSON      = obs.Default().Counter(`turbdb_wire_encode_ns_total{proto="json"}`)
	mEncPointsJSON  = obs.Default().Counter(`turbdb_wire_encode_points_total{proto="json"}`)
	mEncBytesJSON   = obs.Default().Counter(`turbdb_wire_encode_bytes_total{proto="json"}`)
	mDecNSFrame     = obs.Default().Counter(`turbdb_wire_decode_ns_total{proto="frame"}`)
	mDecPointsFrame = obs.Default().Counter(`turbdb_wire_decode_points_total{proto="frame"}`)
	mDecBytesFrame  = obs.Default().Counter(`turbdb_wire_decode_bytes_total{proto="frame"}`)
	mDecNSJSON      = obs.Default().Counter(`turbdb_wire_decode_ns_total{proto="json"}`)
	mDecPointsJSON  = obs.Default().Counter(`turbdb_wire_decode_points_total{proto="json"}`)
	mDecBytesJSON   = obs.Default().Counter(`turbdb_wire_decode_bytes_total{proto="json"}`)
	mWireFrames     = obs.Default().Counter(`turbdb_wire_frames_total`)
	mWireChunks     = obs.Default().Counter(`turbdb_wire_chunks_total`)
)

// RemoteError is a typed failure decoded from a binary error frame whose
// kind has no dedicated domain error. It preserves the server-assigned
// retry class, so faulttol.Transient classifies it exactly as the origin
// did.
type RemoteError struct {
	Path  string
	Kind  string
	Msg   string
	Class binproto.Class
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

// errorFrameFor maps a handler error to its typed error frame, the frame
// analogue of writeError's status mapping — but carrying the retry class
// explicitly instead of encoding it in a status code.
func errorFrameFor(err error) binproto.ErrorFrame {
	var tooMany *query.ErrTooManyPoints
	var overQuota *sched.ErrOverQuota
	switch {
	case errors.As(err, &tooMany):
		return binproto.ErrorFrame{
			Class: binproto.ClassPermanent, Kind: "threshold_too_low",
			Msg: err.Error(), Seen: tooMany.Seen, Limit: tooMany.Limit,
		}
	case errors.As(err, &overQuota):
		return binproto.ErrorFrame{
			Class: binproto.ClassOverQuota, Kind: "over_quota",
			Msg: err.Error(), Tenant: overQuota.Tenant, Seen: overQuota.Queued, Limit: overQuota.Limit,
		}
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return binproto.ErrorFrame{Class: binproto.ClassTransient, Kind: "unavailable", Msg: err.Error()}
	case faulttol.Transient(err):
		return binproto.ErrorFrame{Class: binproto.ClassTransient, Msg: err.Error()}
	}
	return binproto.ErrorFrame{Class: binproto.ClassPermanent, Msg: err.Error()}
}

// typedFrameError is the client-side inverse: reconstruct the domain
// error a decoded error frame stands for.
func typedFrameError(path string, ef *binproto.ErrorFrame) error {
	switch ef.Kind {
	case "threshold_too_low":
		return &query.ErrTooManyPoints{Limit: ef.Limit, Seen: ef.Seen}
	case "over_quota":
		return &sched.ErrOverQuota{Tenant: ef.Tenant, Queued: ef.Seen, Limit: ef.Limit}
	}
	return &RemoteError{Path: path, Kind: ef.Kind, Msg: ef.Msg, Class: ef.Class}
}

// beginFrames stamps the frame content type and returns the stream
// writer. Must be called before any other header/body write.
func beginFrames(w http.ResponseWriter) *binproto.Writer {
	w.Header().Set("Content-Type", binproto.MediaType)
	return binproto.NewWriter(w)
}

// writeFrameError writes a whole-request failure as a frame stream (200 +
// error frame + End{Items: 0}); the retry class rides in the frame.
func writeFrameError(w http.ResponseWriter, err error) {
	bw := beginFrames(w)
	wErr := bw.Error(errorFrameFor(err))
	if wErr == nil {
		wErr = bw.End(binproto.End{})
	}
	if wErr != nil {
		log.Printf("wire: encoding frame error response: %v", wErr)
		return
	}
	mWireFrames.Add(int64(bw.Frames()))
}

// noteFrameEncode records one finished frame-stream encode.
func noteFrameEncode(start time.Time, points int, bw *binproto.Writer) {
	mEncNSFrame.Add(time.Since(start).Nanoseconds())
	mEncPointsFrame.Add(int64(points))
	mEncBytesFrame.Add(int64(bw.BytesWritten()))
	mWireFrames.Add(int64(bw.Frames()))
	mWireChunks.Add(int64(bw.Chunks()))
}

// statsForBreakdown converts a node breakdown to frame stats using the
// exact arithmetic of breakdownToDTO, so a frame round-trip yields the
// same float64 milliseconds as the JSON path, bit for bit.
func statsForBreakdown(b node.Breakdown) binproto.Stats {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return binproto.Stats{
		CacheLookupMS: ms(b.CacheLookup), IOMS: ms(b.IO), ComputeMS: ms(b.Compute),
		CacheUpdateMS: ms(b.CacheUpdate), TotalMS: ms(b.Total),
		AtomsRead: b.AtomsRead, HaloAtoms: b.HaloAtoms,
		PointsExamined: b.PointsExamined, AtomsSkipped: b.AtomsSkipped,
	}
}

// statsForQuery maps the mediator's QueryStats to frame stats, mirroring
// the JSON response fields exactly.
func statsForQuery(stats *mediator.QueryStats) binproto.Stats {
	st := statsForBreakdown(stats.NodeCritical)
	st.FromCache = stats.FromCache()
	st.Coverage = stats.Coverage
	st.Failed = len(stats.Failures)
	st.SharedScan = stats.SharedScan
	st.ScansSaved = stats.ScansSaved
	if stats.QueueWait > 0 {
		st.QueueWaitMS = float64(stats.QueueWait) / float64(time.Millisecond)
	}
	return st
}

// writeSoloFrames streams one successful query result — threshold/top-k
// points or PDF counts — as points/counts chunk frames, a stats frame and
// the end frame. Results stream out chunk by chunk (node.ChunkPoints), so
// the server never materializes an encoded copy of the full result.
func writeSoloFrames(w http.ResponseWriter, pts []query.ResultPoint, counts []int64, st binproto.Stats) {
	start := time.Now()
	bw := beginFrames(w)
	err := node.ChunkPoints(pts, binproto.MaxChunk, bw.Points)
	if err == nil && len(counts) > 0 {
		err = bw.Counts(counts)
	}
	if err == nil {
		err = bw.Stats(st)
	}
	if err == nil {
		err = bw.End(binproto.End{Items: 1})
	}
	if err != nil {
		// The 200 status line is already out; like writeJSON, all we can do
		// is log — the truncated stream fails loudly at the decoder.
		log.Printf("wire: encoding frame response: %v", err)
		return
	}
	noteFrameEncode(start, len(pts)+len(counts), bw)
}

// writeBatchFrames streams a shared-scan batch result: per member, points
// chunks closed by a stats frame (success) or one error frame (typed
// rejection), in request order; the end frame carries the member count
// and the batch-wide physical scan count.
func writeBatchFrames(w http.ResponseWriter, res *node.ThresholdBatchResult) {
	start := time.Now()
	bw := beginFrames(w)
	points := 0
	var err error
	for i := range res.Results {
		if memberErr := res.Errs[i]; memberErr != nil {
			if err = bw.Error(errorFrameFor(memberErr)); err != nil {
				break
			}
			continue
		}
		rr := res.Results[i]
		if err = node.ChunkPoints(rr.Points, binproto.MaxChunk, bw.Points); err != nil {
			break
		}
		st := statsForBreakdown(rr.Breakdown)
		st.FromCache = rr.FromCache
		st.Shared = rr.Shared
		st.ScansSaved = rr.ScansSaved
		if err = bw.Stats(st); err != nil {
			break
		}
		points += len(rr.Points)
	}
	if err == nil {
		err = bw.End(binproto.End{Items: len(res.Results), AtomsScanned: res.AtomsScanned})
	}
	if err != nil {
		log.Printf("wire: encoding batch frame response: %v", err)
		return
	}
	noteFrameEncode(start, points, bw)
}

// countingWriter counts body bytes for the JSON encode metrics.
type countingWriter struct {
	w io.Writer
	n int
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += n
	return n, err
}

// countingReader counts body bytes for the JSON decode metrics.
type countingReader struct {
	r io.Reader
	n int
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += n
	return n, err
}

// writeQueryJSON writes a JSON query response like writeJSON, recording
// encode time, point count and body bytes under the json protocol label
// so both encodings are comparable on /metrics.
func writeQueryJSON(w http.ResponseWriter, v interface{}, points int) {
	start := time.Now()
	w.Header().Set("Content-Type", "application/json")
	cw := &countingWriter{w: w}
	if err := json.NewEncoder(cw).Encode(v); err != nil {
		log.Printf("wire: encoding response: %v", err)
	}
	mEncNSJSON.Add(time.Since(start).Nanoseconds())
	mEncPointsJSON.Add(int64(points))
	mEncBytesJSON.Add(int64(cw.n))
}

// frameItem accumulates one logical result (points/counts chunks plus the
// stats or error terminator) while decoding a response stream.
type frameItem struct {
	codes  []uint64
	values []float32
	counts []int64
	stats  *binproto.Stats
	errf   *binproto.ErrorFrame
}

// decodeFrames decodes a negotiated frame response body into the same
// response DTO the JSON path fills, so everything above the transport is
// encoding-agnostic. Returns the reconstructed typed error for failure
// streams.
func decodeFrames(path string, body io.Reader, resp interface{}) error {
	start := time.Now()
	r := binproto.NewReader(body)
	var items []frameItem
	var cur frameItem
	curOpen := false
	var end *binproto.End
	for end == nil {
		f, err := r.Next()
		if err != nil {
			if err == io.EOF {
				// The connection died mid-stream: retryable, unlike a
				// malformed frame.
				return faulttol.Transientf("wire: %s: frame stream truncated before end frame", path)
			}
			return fmt.Errorf("wire: %s: %w", path, err)
		}
		switch fr := f.(type) {
		case *binproto.Points:
			cur.codes = append(cur.codes, fr.Codes...)
			cur.values = append(cur.values, fr.Values...)
			curOpen = true
		case *binproto.Counts:
			cur.counts = append(cur.counts, fr.Counts...)
			curOpen = true
		case *binproto.Stats:
			s := *fr
			cur.stats = &s
			items = append(items, cur)
			cur, curOpen = frameItem{}, false
		case *binproto.ErrorFrame:
			e := *fr
			cur.errf = &e
			items = append(items, cur)
			cur, curOpen = frameItem{}, false
		case *binproto.End:
			e := *fr
			end = &e
		}
	}
	if curOpen {
		return faulttol.Permanentf("wire: %s: frame stream ended with an unterminated item", path)
	}
	// A lone error item under End{Items: 0} is a whole-request failure.
	if end.Items == 0 && len(items) == 1 && items[0].errf != nil {
		return typedFrameError(path, items[0].errf)
	}
	if end.Items != len(items) {
		return faulttol.Permanentf("wire: %s: end frame declares %d items, stream carried %d", path, end.Items, len(items))
	}

	points := 0
	switch out := resp.(type) {
	case *ThresholdResponse:
		it, err := soloItem(path, items)
		if err != nil {
			return err
		}
		out.Points = pointDTOs(it.codes, it.values)
		out.FromCache = it.stats.FromCache
		out.Breakdown = it.breakdownDTO()
		out.Coverage = it.stats.Coverage
		out.Failed = it.stats.Failed
		out.QueueWaitMS = it.stats.QueueWaitMS
		out.SharedScan = it.stats.SharedScan
		out.ScansSaved = it.stats.ScansSaved
		points = len(out.Points)
	case *TopKResponse:
		it, err := soloItem(path, items)
		if err != nil {
			return err
		}
		out.Points = pointDTOs(it.codes, it.values)
		out.Breakdown = it.breakdownDTO()
		out.Coverage = it.stats.Coverage
		out.Failed = it.stats.Failed
		points = len(out.Points)
	case *PDFResponse:
		it, err := soloItem(path, items)
		if err != nil {
			return err
		}
		out.Counts = it.counts
		out.Breakdown = it.breakdownDTO()
		out.Coverage = it.stats.Coverage
		out.Failed = it.stats.Failed
		points = len(out.Counts)
	case *ThresholdBatchResponse:
		out.Items = make([]BatchItemDTO, len(items))
		out.AtomsScanned = end.AtomsScanned
		for i, it := range items {
			if it.errf != nil {
				out.Items[i] = BatchItemDTO{
					Error: it.errf.Msg, Kind: it.errf.Kind,
					Seen: it.errf.Seen, Limit: it.errf.Limit,
				}
				continue
			}
			out.Items[i] = BatchItemDTO{
				Points:    pointDTOs(it.codes, it.values),
				FromCache: it.stats.FromCache,
				Breakdown: it.breakdownDTO(),
				Shared:    it.stats.Shared, ScansSaved: it.stats.ScansSaved,
			}
			points += len(it.codes)
		}
	default:
		return faulttol.Permanentf("wire: %s: unexpected frame response for %T", path, resp)
	}

	mDecNSFrame.Add(time.Since(start).Nanoseconds())
	mDecPointsFrame.Add(int64(points))
	mDecBytesFrame.Add(int64(r.BytesRead()))
	return nil
}

// soloItem extracts the single logical result of a non-batch response.
func soloItem(path string, items []frameItem) (frameItem, error) {
	if len(items) != 1 {
		return frameItem{}, faulttol.Permanentf("wire: %s: frame stream carried %d items, want 1", path, len(items))
	}
	it := items[0]
	if it.errf != nil {
		return frameItem{}, typedFrameError(path, it.errf)
	}
	if it.stats == nil {
		return frameItem{}, faulttol.Permanentf("wire: %s: frame item has no stats terminator", path)
	}
	return it, nil
}

// pointDTOs rebuilds the JSON DTO form from decoded columnar planes.
func pointDTOs(codes []uint64, values []float32) []PointDTO {
	out := make([]PointDTO, len(codes))
	for i := range codes {
		out[i] = PointDTO{Code: codes[i], Value: values[i]}
	}
	return out
}

// breakdownDTO extracts the breakdown subset of the item's stats frame;
// the millisecond floats pass through untouched, so they equal the JSON
// path's bit for bit. (The stats frame's remaining fields are response
// envelope, not breakdown — each response mapper reads those itself.)
func (it *frameItem) breakdownDTO() BreakdownDTO {
	s := it.stats
	return BreakdownDTO{
		CacheLookupMS: s.CacheLookupMS, IOMS: s.IOMS, ComputeMS: s.ComputeMS,
		CacheUpdateMS: s.CacheUpdateMS, TotalMS: s.TotalMS,
		AtomsRead: s.AtomsRead, HaloAtoms: s.HaloAtoms,
		PointsExamined: s.PointsExamined, AtomsSkipped: s.AtomsSkipped,
	}
}

// pointCount sizes a decoded JSON query response for the decode metrics;
// -1 for non-query responses (which are not recorded).
func pointCount(resp interface{}) int {
	switch r := resp.(type) {
	case *ThresholdResponse:
		return len(r.Points)
	case *TopKResponse:
		return len(r.Points)
	case *PDFResponse:
		return len(r.Counts)
	case *ThresholdBatchResponse:
		n := 0
		for _, it := range r.Items {
			n += len(it.Points)
		}
		return n
	}
	return -1
}
