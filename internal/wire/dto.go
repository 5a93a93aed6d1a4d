// Package wire provides the HTTP transport of the analysis service: a
// service wrapper for database nodes (threshold/PDF/top-k evaluation and
// peer halo fetches), one for the mediator (the user-facing Web-services of
// the paper's Fig. 1), and clients for both. This file is the frozen v1
// JSON vocabulary: every request, and the responses of the JSON codec;
// codec.go puts it and the binary frames of binproto behind one server
// pipeline and one client exchange. Either encoding carries what the
// production JHTDB's SOAP Web-services do, with the same proportional-to-
// result-size transfer behaviour. Wire services always run in real mode.
package wire

import (
	"time"

	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/node"
	"github.com/turbdb/turbdb/internal/obs"
	"github.com/turbdb/turbdb/internal/query"
)

// Paths of the node and mediator services.
const (
	PathThreshold      = "/v1/threshold"
	PathThresholdBatch = "/v1/threshold/batch"
	PathPDF            = "/v1/pdf"
	PathTopK           = "/v1/topk"
	PathAtoms          = "/v1/atoms"
	PathDropCache      = "/v1/drop-cache"
	PathSetProcesses   = "/v1/set-processes"
	PathInfo           = "/v1/info"
)

// PointDTO is one result point on the wire: [morton code, value].
//
//turbdb:wire-baseline z,v
type PointDTO struct {
	Code  uint64  `json:"z"`
	Value float32 `json:"v"`
}

// toDTO converts result points.
func toDTO(pts []query.ResultPoint) []PointDTO {
	out := make([]PointDTO, len(pts))
	for i, p := range pts {
		out[i] = PointDTO{Code: uint64(p.Code), Value: p.Value}
	}
	return out
}

// fromDTO converts wire points.
func fromDTO(pts []PointDTO) []query.ResultPoint {
	out := make([]query.ResultPoint, len(pts))
	for i, p := range pts {
		out[i] = query.ResultPoint{Code: morton.Code(p.Code), Value: p.Value}
	}
	return out
}

// BoxDTO is a grid box on the wire.
//
//turbdb:wire-baseline lo,hi
type BoxDTO struct {
	Lo [3]int `json:"lo"`
	Hi [3]int `json:"hi"`
}

func boxToDTO(b grid.Box) BoxDTO {
	return BoxDTO{Lo: [3]int{b.Lo.X, b.Lo.Y, b.Lo.Z}, Hi: [3]int{b.Hi.X, b.Hi.Y, b.Hi.Z}}
}

func boxFromDTO(d BoxDTO) grid.Box {
	return grid.Box{
		Lo: grid.Point{X: d.Lo[0], Y: d.Lo[1], Z: d.Lo[2]},
		Hi: grid.Point{X: d.Hi[0], Y: d.Hi[1], Z: d.Hi[2]},
	}
}

// RangeDTO is a half-open atom-code range [Lo, Hi) on the wire.
//
//turbdb:wire-baseline lo,hi
type RangeDTO struct {
	Lo uint64 `json:"lo"`
	Hi uint64 `json:"hi"`
}

// rangesToDTO converts atom ranges; nil in, nil out, so omitempty fields
// stay byte-identical for unreplicated deployments.
func rangesToDTO(rs []morton.Range) []RangeDTO {
	if len(rs) == 0 {
		return nil
	}
	out := make([]RangeDTO, len(rs))
	for i, r := range rs {
		out[i] = RangeDTO{Lo: uint64(r.Lo), Hi: uint64(r.Hi)}
	}
	return out
}

// rangesFromDTO converts wire ranges.
func rangesFromDTO(ds []RangeDTO) []morton.Range {
	if len(ds) == 0 {
		return nil
	}
	out := make([]morton.Range, len(ds))
	for i, d := range ds {
		out[i] = morton.Range{Lo: morton.Code(d.Lo), Hi: morton.Code(d.Hi)}
	}
	return out
}

// SpanDTO is one trace span on the wire. Offsets are microseconds from the
// recording service's trace epoch; the receiver re-aligns them when
// grafting (obs.Trace.Graft).
//
//turbdb:wire-baseline id,name,startUs,durUs
type SpanDTO struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartUS int64  `json:"startUs"`
	DurUS   int64  `json:"durUs"`
}

// TraceDTO is a whole query trace on the wire (mediator → user).
//
//turbdb:wire-baseline id,spans
type TraceDTO struct {
	ID    string    `json:"id"`
	Spans []SpanDTO `json:"spans"`
}

// SpansToDTO converts recorded spans to their wire form.
func SpansToDTO(spans []obs.Span) []SpanDTO {
	if len(spans) == 0 {
		return nil
	}
	out := make([]SpanDTO, len(spans))
	for i, s := range spans {
		_ = s.Attr // stays in the recording process: the frozen span DTO has no place for it
		out[i] = SpanDTO{
			ID: s.ID, Parent: s.Parent, Name: s.Name,
			StartUS: s.Start.Microseconds(),
			DurUS:   (s.End - s.Start).Microseconds(),
		}
	}
	return out
}

// SpansFromDTO converts wire spans back to obs spans.
func SpansFromDTO(d []SpanDTO) []obs.Span {
	if len(d) == 0 {
		return nil
	}
	out := make([]obs.Span, len(d))
	for i, s := range d {
		start := time.Duration(s.StartUS) * time.Microsecond
		out[i] = obs.Span{
			ID: s.ID, Parent: s.Parent, Name: s.Name,
			Start: start,
			End:   start + time.Duration(s.DurUS)*time.Microsecond,
			Attr:  obs.Attr{}, // not on the wire
		}
	}
	return out
}

// ThresholdRequest is the wire form of query.Threshold. TraceID joins the
// request to an existing distributed trace (mediator → node fan-out);
// Trace asks the service to mint a fresh trace and return the collected
// span tree in the response (user → mediator, or user → node directly).
//
//turbdb:wire-baseline dataset,field,timestep,threshold
type ThresholdRequest struct {
	Dataset   string  `json:"dataset"`
	Field     string  `json:"field"`
	Timestep  int     `json:"timestep"`
	Threshold float64 `json:"threshold"`
	Box       *BoxDTO `json:"box,omitempty"`
	FDOrder   int     `json:"fdOrder,omitempty"`
	Limit     int     `json:"limit,omitempty"`
	// Scan restricts the node-side scan to these atom-code ranges (replica
	// failover re-routing). Absent means the node's primary range.
	Scan []RangeDTO `json:"scan,omitempty"`
	// Tenant names the admission resource pool (internal/sched); absent
	// means the default pool.
	Tenant string `json:"tenant,omitempty"`
	//turbdb:wire-local transport-layer trace join; the RPC handler consumes it before the query runs
	TraceID string `json:"traceId,omitempty"`
	//turbdb:wire-local transport-layer trace minting flag; never part of the internal query
	Trace bool `json:"trace,omitempty"`
}

// ToQuery converts to the internal type.
func (r ThresholdRequest) ToQuery() query.Threshold {
	q := query.Threshold{
		Dataset: r.Dataset, Field: r.Field, Timestep: r.Timestep,
		Threshold: r.Threshold, FDOrder: r.FDOrder, Limit: r.Limit,
		Scan: rangesFromDTO(r.Scan), Tenant: r.Tenant,
	}
	if r.Box != nil {
		q.Box = boxFromDTO(*r.Box)
	}
	return q
}

// ThresholdRequestFor converts from the internal type.
func ThresholdRequestFor(q query.Threshold) ThresholdRequest {
	r := ThresholdRequest{
		Dataset: q.Dataset, Field: q.Field, Timestep: q.Timestep,
		Threshold: q.Threshold, FDOrder: q.FDOrder, Limit: q.Limit,
		Scan: rangesToDTO(q.Scan), Tenant: q.Tenant,
	}
	if q.Box != (grid.Box{}) {
		b := boxToDTO(q.Box)
		r.Box = &b
	}
	return r
}

// BreakdownDTO mirrors node.Breakdown with millisecond durations.
//
//turbdb:wire-baseline cacheLookupMs,ioMs,computeMs,cacheUpdateMs,totalMs,atomsRead,haloAtoms,pointsExamined
type BreakdownDTO struct {
	CacheLookupMS  float64 `json:"cacheLookupMs"`
	IOMS           float64 `json:"ioMs"`
	ComputeMS      float64 `json:"computeMs"`
	CacheUpdateMS  float64 `json:"cacheUpdateMs"`
	TotalMS        float64 `json:"totalMs"`
	AtomsRead      int     `json:"atomsRead"`
	HaloAtoms      int     `json:"haloAtoms"`
	PointsExamined int     `json:"pointsExamined"`
	AtomsSkipped   int     `json:"atomsSkipped,omitempty"`
}

func breakdownToDTO(b node.Breakdown) BreakdownDTO {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	_ = b.AtomsPruned // stays on the node (metrics, in-process stats): the frozen v1 breakdown has no place for it
	return BreakdownDTO{
		CacheLookupMS: ms(b.CacheLookup), IOMS: ms(b.IO), ComputeMS: ms(b.Compute),
		CacheUpdateMS: ms(b.CacheUpdate), TotalMS: ms(b.Total),
		AtomsRead: b.AtomsRead, HaloAtoms: b.HaloAtoms, PointsExamined: b.PointsExamined,
		AtomsSkipped: b.AtomsSkipped,
	}
}

// Breakdown converts the wire form back to the internal type.
func (d BreakdownDTO) Breakdown() node.Breakdown { return breakdownFromDTO(d) }

func breakdownFromDTO(d BreakdownDTO) node.Breakdown {
	dur := func(msv float64) time.Duration { return time.Duration(msv * float64(time.Millisecond)) }
	return node.Breakdown{
		CacheLookup: dur(d.CacheLookupMS), IO: dur(d.IOMS), Compute: dur(d.ComputeMS),
		CacheUpdate: dur(d.CacheUpdateMS), Total: dur(d.TotalMS),
		AtomsRead: d.AtomsRead, HaloAtoms: d.HaloAtoms, PointsExamined: d.PointsExamined,
		AtomsSkipped: d.AtomsSkipped,
		AtomsPruned:  0, // not on the wire
	}
}

// ThresholdResponse is the wire form of a node or mediator threshold result.
// Coverage annotates partial answers from a degraded mediator (0 or
// absent means complete, i.e. 1).
//
//turbdb:wire-baseline points,fromCache,breakdown
type ThresholdResponse struct {
	Points    []PointDTO   `json:"points"`
	FromCache bool         `json:"fromCache"`
	Breakdown BreakdownDTO `json:"breakdown"`
	Coverage  float64      `json:"coverage,omitempty"`
	Failed    int          `json:"failedNodes,omitempty"`
	// QueueWaitMS is the scheduler admission wait (mediators running the
	// concurrent scheduler only; absent otherwise).
	QueueWaitMS float64 `json:"queueWaitMs,omitempty"`
	// SharedScan marks an answer served by a shared-scan batch; ScansSaved
	// counts the node-side atom scans the sharing avoided.
	SharedScan bool `json:"sharedScan,omitempty"`
	ScansSaved int  `json:"scansSaved,omitempty"`
	// Spans are the serving node's stage spans when the request carried a
	// TraceID; the client grafts them under its RPC span.
	Spans []SpanDTO `json:"spans,omitempty"`
	// Trace is the fully assembled span tree when the request set Trace.
	Trace *TraceDTO `json:"trace,omitempty"`
}

// ThresholdBatchRequest carries a shared-scan batch to a node: members
// agree on (dataset, field, order, step, scan) and are evaluated in one
// pass over the union of their boxes.
//
//turbdb:wire-baseline queries
type ThresholdBatchRequest struct {
	Queries []ThresholdRequest `json:"queries"`
	TraceID string             `json:"traceId,omitempty"`
}

// BatchItemDTO is one member's slot in a batch response: a result or a
// typed per-member error, never both.
//
//turbdb:wire-baseline breakdown
type BatchItemDTO struct {
	Points    []PointDTO   `json:"points,omitempty"`
	FromCache bool         `json:"fromCache,omitempty"`
	Breakdown BreakdownDTO `json:"breakdown"`
	// Shared and ScansSaved mirror node.ThresholdResult's shared-scan
	// accounting.
	Shared     int `json:"shared,omitempty"`
	ScansSaved int `json:"scansSaved,omitempty"`
	// Error/Kind/Seen/Limit carry a per-member failure (same vocabulary as
	// ErrorResponse).
	Error string `json:"error,omitempty"`
	Kind  string `json:"kind,omitempty"`
	Seen  int    `json:"seen,omitempty"`
	Limit int    `json:"limit,omitempty"`
}

// ThresholdBatchResponse is the node's answer to a batch, indexed like the
// request's Queries.
//
//turbdb:wire-baseline items
type ThresholdBatchResponse struct {
	Items        []BatchItemDTO `json:"items"`
	AtomsScanned int            `json:"atomsScanned,omitempty"`
	Spans        []SpanDTO      `json:"spans,omitempty"`
}

// PDFRequest is the wire form of query.PDF.
//
//turbdb:wire-baseline dataset,field,timestep,bins,min,width
type PDFRequest struct {
	Dataset  string  `json:"dataset"`
	Field    string  `json:"field"`
	Timestep int     `json:"timestep"`
	Box      *BoxDTO `json:"box,omitempty"`
	Bins     int     `json:"bins"`
	Min      float64 `json:"min"`
	Width    float64 `json:"width"`
	FDOrder  int     `json:"fdOrder,omitempty"`
	// Scan restricts the node-side scan (replica failover re-routing).
	Scan []RangeDTO `json:"scan,omitempty"`
	// Tenant names the admission resource pool; absent = default pool.
	Tenant string `json:"tenant,omitempty"`
	//turbdb:wire-local transport-layer trace join; the RPC handler consumes it before the query runs
	TraceID string `json:"traceId,omitempty"`
	//turbdb:wire-local transport-layer trace minting flag; never part of the internal query
	Trace bool `json:"trace,omitempty"`
}

// ToQuery converts to the internal type.
func (r PDFRequest) ToQuery() query.PDF {
	q := query.PDF{
		Dataset: r.Dataset, Field: r.Field, Timestep: r.Timestep,
		Bins: r.Bins, Min: r.Min, Width: r.Width, FDOrder: r.FDOrder,
		Scan: rangesFromDTO(r.Scan), Tenant: r.Tenant,
	}
	if r.Box != nil {
		q.Box = boxFromDTO(*r.Box)
	}
	return q
}

// PDFRequestFor converts from the internal type.
func PDFRequestFor(q query.PDF) PDFRequest {
	r := PDFRequest{
		Dataset: q.Dataset, Field: q.Field, Timestep: q.Timestep,
		Bins: q.Bins, Min: q.Min, Width: q.Width, FDOrder: q.FDOrder,
		Scan: rangesToDTO(q.Scan), Tenant: q.Tenant,
	}
	if q.Box != (grid.Box{}) {
		b := boxToDTO(q.Box)
		r.Box = &b
	}
	return r
}

// PDFResponse is the wire form of a PDF result.
//
//turbdb:wire-baseline counts,breakdown
type PDFResponse struct {
	Counts    []int64      `json:"counts"`
	Breakdown BreakdownDTO `json:"breakdown"`
	Coverage  float64      `json:"coverage,omitempty"`
	Failed    int          `json:"failedNodes,omitempty"`
	// FromCache marks a histogram served from the node cache (on a
	// mediator's answer: from every node's).
	FromCache bool      `json:"fromCache,omitempty"`
	Spans     []SpanDTO `json:"spans,omitempty"`
	Trace     *TraceDTO `json:"trace,omitempty"`
}

// TopKRequest is the wire form of query.TopK.
//
//turbdb:wire-baseline dataset,field,timestep,k
type TopKRequest struct {
	Dataset  string  `json:"dataset"`
	Field    string  `json:"field"`
	Timestep int     `json:"timestep"`
	Box      *BoxDTO `json:"box,omitempty"`
	K        int     `json:"k"`
	FDOrder  int     `json:"fdOrder,omitempty"`
	// Scan restricts the node-side scan (replica failover re-routing).
	Scan []RangeDTO `json:"scan,omitempty"`
	// Tenant names the admission resource pool; absent = default pool.
	Tenant string `json:"tenant,omitempty"`
	//turbdb:wire-local transport-layer trace join; the RPC handler consumes it before the query runs
	TraceID string `json:"traceId,omitempty"`
	//turbdb:wire-local transport-layer trace minting flag; never part of the internal query
	Trace bool `json:"trace,omitempty"`
}

// ToQuery converts to the internal type.
func (r TopKRequest) ToQuery() query.TopK {
	q := query.TopK{
		Dataset: r.Dataset, Field: r.Field, Timestep: r.Timestep,
		K: r.K, FDOrder: r.FDOrder,
		Scan: rangesFromDTO(r.Scan), Tenant: r.Tenant,
	}
	if r.Box != nil {
		q.Box = boxFromDTO(*r.Box)
	}
	return q
}

// TopKRequestFor converts from the internal type.
func TopKRequestFor(q query.TopK) TopKRequest {
	r := TopKRequest{
		Dataset: q.Dataset, Field: q.Field, Timestep: q.Timestep,
		K: q.K, FDOrder: q.FDOrder,
		Scan: rangesToDTO(q.Scan), Tenant: q.Tenant,
	}
	if q.Box != (grid.Box{}) {
		b := boxToDTO(q.Box)
		r.Box = &b
	}
	return r
}

// TopKResponse is the wire form of a top-k result.
//
//turbdb:wire-baseline points,breakdown
type TopKResponse struct {
	Points    []PointDTO   `json:"points"`
	Breakdown BreakdownDTO `json:"breakdown"`
	Coverage  float64      `json:"coverage,omitempty"`
	Failed    int          `json:"failedNodes,omitempty"`
	Spans     []SpanDTO    `json:"spans,omitempty"`
	Trace     *TraceDTO    `json:"trace,omitempty"`
}

// AtomsRequest asks a node for raw atom blobs (peer halo exchange).
// TraceID joins the fetch to the distributed trace of the query that
// triggered it. Boxes, when present, names per code the atom-local box the
// asking scan reads — its halo band — in boxBytes bytes each, and the node
// answers each atom with just that part of it.
//
//turbdb:wire-baseline field,timestep,codes
type AtomsRequest struct {
	Field    string   `json:"field"`
	Timestep int      `json:"timestep"`
	Codes    []uint64 `json:"codes"`
	TraceID  string   `json:"traceId,omitempty"`
	Boxes    []byte   `json:"boxes,omitempty"`
}

// boxBytes is the wire size of one box of AtomsRequest.Boxes: its low and
// high corners, x, y, z, one byte each. It expresses the boxes of atoms of
// side up to maxBoxSide; a client on a grid of larger atoms sends none.
const (
	boxBytes   = 6
	maxBoxSide = 255
)

// appendBox appends the wire form of an atom-local box.
func appendBox(dst []byte, b grid.Box) []byte {
	return append(dst, byte(b.Lo.X), byte(b.Lo.Y), byte(b.Lo.Z), byte(b.Hi.X), byte(b.Hi.Y), byte(b.Hi.Z))
}

// boxesFromDTO decodes the Boxes of a request for n atoms of the given
// side: nil when it has none, and a permanent error unless it holds n
// non-empty boxes inside the atom.
func boxesFromDTO(raw []byte, n, atomSide int) ([]grid.Box, error) {
	if raw == nil {
		return nil, nil
	}
	if atomSide > maxBoxSide {
		return nil, faulttol.Permanentf("wire: boxes for atoms of side %d; at most %d can be expressed", atomSide, maxBoxSide)
	}
	if len(raw) != boxBytes*n {
		return nil, faulttol.Permanentf("wire: %d bytes of boxes for %d atoms, want %d", len(raw), n, boxBytes*n)
	}
	atom := grid.Box{Hi: grid.Point{X: atomSide, Y: atomSide, Z: atomSide}}
	boxes := make([]grid.Box, n)
	for i := range boxes {
		r := raw[boxBytes*i : boxBytes*(i+1)]
		b := grid.Box{
			Lo: grid.Point{X: int(r[0]), Y: int(r[1]), Z: int(r[2])},
			Hi: grid.Point{X: int(r[3]), Y: int(r[4]), Z: int(r[5])},
		}
		if b.Empty() || !atom.ContainsBox(b) {
			return nil, faulttol.Permanentf("wire: box %d %v is empty or leaves its atom %v", i, b, atom)
		}
		boxes[i] = b
	}
	return boxes, nil
}

// AtomsResponse returns the blobs, base64-encoded by encoding/json.
//
//turbdb:wire-baseline atoms
type AtomsResponse struct {
	Atoms map[uint64][]byte `json:"atoms"`
	Spans []SpanDTO         `json:"spans,omitempty"`
}

// DropCacheRequest clears cached entries for a (field, order, step).
//
//turbdb:wire-baseline field,fdOrder,timestep
type DropCacheRequest struct {
	Field    string `json:"field"`
	FDOrder  int    `json:"fdOrder"`
	Timestep int    `json:"timestep"`
}

// SetProcessesRequest sets a node's worker count.
//
//turbdb:wire-baseline processes
type SetProcessesRequest struct {
	Processes int `json:"processes"`
}

// InfoResponse describes a node or mediator.
//
//turbdb:wire-baseline dataset,gridN,atomSide,dx
type InfoResponse struct {
	Dataset  string  `json:"dataset"`
	GridN    int     `json:"gridN"`
	AtomSide int     `json:"atomSide"`
	Dx       float64 `json:"dx"`
	OwnedLo  uint64  `json:"ownedLo,omitempty"`
	OwnedHi  uint64  `json:"ownedHi,omitempty"`
	// Held lists every range the node's store holds (primary first, then
	// adopted replicas). Absent on mediators and unreplicated nodes, where
	// it is equivalent to [Owned].
	Held []RangeDTO `json:"held,omitempty"`
}

// ErrorResponse is the error envelope.
//
//turbdb:wire-baseline error
type ErrorResponse struct {
	Error string `json:"error"`
	// Kind distinguishes typed errors the client must surface, e.g.
	// "threshold_too_low" or "over_quota".
	Kind  string `json:"kind,omitempty"`
	Seen  int    `json:"seen,omitempty"`
	Limit int    `json:"limit,omitempty"`
	// Tenant names the resource pool that shed the query (over_quota only).
	Tenant string `json:"tenant,omitempty"`
}
