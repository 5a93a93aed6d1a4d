// Package query defines the query types the analysis service evaluates —
// threshold queries of (derived) fields, PDF/histogram queries and top-k
// queries — together with their validation rules, result representations
// and the production limits the paper describes (at most 10⁶ result points
// per threshold query, with an error telling the user the threshold is set
// too low).
package query

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/morton"
)

// DefaultLimit is the maximum number of locations a threshold query may
// return (paper Sec. 4: "currently this limit is set conservatively to 10⁶
// locations").
const DefaultLimit = 1_000_000

// DefaultFDOrder is the finite-difference order used when a query does not
// specify one; the paper's examples use 4th-order centered differencing.
const DefaultFDOrder = 4

// SerializedPointSize is the modeled wire size of one result point in a
// Web-service response, including envelope overhead (the paper notes
// responses are "much larger due to the overhead of wrapping the data in an
// xml format"). Raw payload is 12 bytes (8-byte z-index + 4-byte value).
const SerializedPointSize = 48

// FramePointSize is the modeled wire size of one result point under the
// binary frame protocol: a delta-varint z-index plus a packed float32
// (measured ~5 bytes/point on dense scan output, BENCH_10; 7 is a
// conservative model covering sparser results with larger deltas).
const FramePointSize = 7

// ErrThresholdTooLow reports that a threshold query would exceed its result
// limit. Users are told to raise the threshold, request the field values
// directly, or look at the PDF instead (paper Sec. 4).
var ErrThresholdTooLow = errors.New(
	"threshold too low: result would exceed the point limit; raise the threshold or examine the PDF")

// ErrTooManyPoints wraps ErrThresholdTooLow with counts.
type ErrTooManyPoints struct {
	Limit int
	// Seen is the number of qualifying points found before aborting (a lower
	// bound on the true count).
	Seen int
}

// Error implements error.
func (e *ErrTooManyPoints) Error() string {
	return fmt.Sprintf("%v (≥%d points, limit %d)", ErrThresholdTooLow, e.Seen, e.Limit)
}

// Unwrap lets errors.Is match ErrThresholdTooLow.
func (e *ErrTooManyPoints) Unwrap() error { return ErrThresholdTooLow }

// Threshold is a threshold query: report every grid location within Box
// where the norm (or absolute value) of Field at Timestep is ≥ Threshold.
type Threshold struct {
	// Dataset names the dataset (e.g. "mhd", "isotropic").
	Dataset string
	// Field is a registered (raw or derived) field name.
	Field string
	// Timestep selects the time-step.
	Timestep int
	// Threshold is compared against the field's norm.
	Threshold float64
	// Box is the spatial region examined; the zero Box means the whole
	// domain (the common case — "in most cases threshold queries operate
	// over an entire time-step").
	Box grid.Box
	// FDOrder is the finite-difference order (2, 4, 6, 8); 0 = default.
	FDOrder int
	// Limit caps the result size; 0 = DefaultLimit.
	Limit int
	// Scan restricts the node-side scan to these atom-code ranges — the
	// mediator's replica routing under k-way placement assigns each node
	// exactly the ranges it answers for. Empty means the node's primary
	// range, which is what the mediator sends a node routed its own shard.
	Scan []morton.Range
	// Tenant names the resource pool the query is admitted under
	// (internal/sched); empty means the default pool. It does not affect
	// the answer, only scheduling.
	Tenant string
}

// Normalize fills defaults and resolves the zero Box to the domain.
func (q Threshold) Normalize(domain grid.Box) Threshold {
	if q.FDOrder == 0 {
		q.FDOrder = DefaultFDOrder
	}
	if q.Limit == 0 {
		q.Limit = DefaultLimit
	}
	if q.Box == (grid.Box{}) {
		q.Box = domain
	}
	return q
}

// Validate checks the query against a dataset domain.
func (q Threshold) Validate(domain grid.Box) error {
	q = q.Normalize(domain)
	switch {
	case q.Dataset == "":
		return fmt.Errorf("query: missing dataset")
	case q.Field == "":
		return fmt.Errorf("query: missing field")
	case q.Timestep < 0:
		return fmt.Errorf("query: negative timestep %d", q.Timestep)
	case q.Threshold < 0:
		return fmt.Errorf("query: negative threshold %g (norms are non-negative)", q.Threshold)
	case q.Limit < 1:
		return fmt.Errorf("query: limit must be positive, got %d", q.Limit)
	case q.Box.Empty():
		return fmt.Errorf("query: empty box %v", q.Box)
	case !domain.ContainsBox(q.Box):
		return fmt.Errorf("query: box %v outside domain %v", q.Box, domain)
	}
	switch q.FDOrder {
	case 2, 4, 6, 8:
	default:
		return fmt.Errorf("query: unsupported finite-difference order %d", q.FDOrder)
	}
	return nil
}

// ResultPoint is one qualifying grid location: the Morton z-index of the
// point and the field's norm there — exactly the schema of the paper's
// cacheData table (zindex, dataValue).
type ResultPoint struct {
	Code  morton.Code
	Value float32
}

// Coords decodes the grid coordinates of the point.
func (p ResultPoint) Coords() grid.Point {
	x, y, z := p.Code.Decode()
	return grid.Point{X: int(x), Y: int(y), Z: int(z)}
}

// RanksBefore is the total order of top-k answers: the larger value first,
// a NaN beyond the infinity of its sign (as a node's max-norm synopsis
// orders its maxima), and at a tie — equal numbers, or two NaNs of one
// sign — the smaller Morton code. Nodes retain and sort by it, and the
// mediator merges by it, so which of several tied points make the cut
// never depends on the order a scan visits them in.
func RanksBefore(a, b ResultPoint) bool {
	sa, sb := nanSign(a.Value), nanSign(b.Value)
	if sa != sb {
		return sa > sb
	}
	if a.Value != b.Value && sa == 0 {
		return a.Value > b.Value
	}
	return a.Code < b.Code
}

// Outranked reports whether every point of an atom whose norms are at most
// max, a number, ranks after kth: then none of them can enter a top-k
// answer of which kth is the last point. A point at kth's value may still
// enter it with a smaller code, so the test is strict.
func Outranked(max float64, kth ResultPoint) bool {
	switch nanSign(kth.Value) {
	case 1:
		return true
	case -1:
		return false
	}
	return float32(max) < kth.Value
}

// nanSign is 0 for a number, and +1 or −1 for a NaN by its sign bit.
func nanSign(v float32) int {
	switch {
	case v == v:
		return 0
	case math.Float32bits(v)>>31 == 0:
		return 1
	}
	return -1
}

// PointFor builds a ResultPoint from coordinates and a value.
func PointFor(p grid.Point, v float64) ResultPoint {
	return ResultPoint{
		Code:  morton.Encode(uint32(p.X), uint32(p.Y), uint32(p.Z)),
		Value: float32(v),
	}
}

// pointWireSize overrides the modeled per-point wire size when positive;
// zero (the default) means SerializedPointSize.
var pointWireSize atomic.Int64

// PointWireSize returns the modeled per-point wire size in effect.
func PointWireSize() int {
	if n := pointWireSize.Load(); n > 0 {
		return int(n)
	}
	return SerializedPointSize
}

// SetPointWireSize sets the modeled per-point wire size the network model
// charges (e.g. FramePointSize when a deployment negotiates the binary
// frame protocol). Non-positive restores the SerializedPointSize default.
// Safe for concurrent use.
func SetPointWireSize(n int) { pointWireSize.Store(int64(n)) }

// WireBytes returns the modeled serialized size of n result points.
func WireBytes(n int) int { return n * PointWireSize() }

// PDF is a probability-density-function query: histogram the norm of Field
// over Box at Timestep into Bins buckets of Width starting at Min (Fig. 2
// uses 10 buckets of width 10 for the vorticity norm). The last bucket is
// open-ended: values ≥ Min + (Bins−1)·Width land there.
type PDF struct {
	Dataset  string
	Field    string
	Timestep int
	Box      grid.Box
	Bins     int
	Min      float64
	Width    float64
	FDOrder  int
	// Scan restricts the node-side scan to these atom-code ranges (replica
	// routing); empty means the node's primary range.
	Scan []morton.Range
	// Tenant names the admission resource pool; empty = default pool.
	Tenant string
}

// Normalize fills defaults.
func (q PDF) Normalize(domain grid.Box) PDF {
	if q.FDOrder == 0 {
		q.FDOrder = DefaultFDOrder
	}
	if q.Box == (grid.Box{}) {
		q.Box = domain
	}
	return q
}

// Validate checks the query.
func (q PDF) Validate(domain grid.Box) error {
	q = q.Normalize(domain)
	switch {
	case q.Dataset == "" || q.Field == "":
		return fmt.Errorf("query: missing dataset or field")
	case q.Timestep < 0:
		return fmt.Errorf("query: negative timestep")
	case q.Bins < 1:
		return fmt.Errorf("query: PDF needs ≥ 1 bin, got %d", q.Bins)
	case q.Width <= 0:
		return fmt.Errorf("query: PDF bin width must be positive, got %g", q.Width)
	case q.Box.Empty() || !domain.ContainsBox(q.Box):
		return fmt.Errorf("query: bad box %v for domain %v", q.Box, domain)
	}
	return nil
}

// Bin returns the bucket index for a norm value (clamped into range).
func (q PDF) Bin(v float64) int {
	if v < q.Min {
		return 0
	}
	b := int((v - q.Min) / q.Width)
	if b >= q.Bins {
		b = q.Bins - 1
	}
	return b
}

// TopK asks for the K grid locations with the largest field norms in Box at
// Timestep.
type TopK struct {
	Dataset  string
	Field    string
	Timestep int
	Box      grid.Box
	K        int
	FDOrder  int
	// Scan restricts the node-side scan to these atom-code ranges (replica
	// routing); empty means the node's primary range.
	Scan []morton.Range
	// Tenant names the admission resource pool; empty = default pool.
	Tenant string
}

// Normalize fills defaults.
func (q TopK) Normalize(domain grid.Box) TopK {
	if q.FDOrder == 0 {
		q.FDOrder = DefaultFDOrder
	}
	if q.Box == (grid.Box{}) {
		q.Box = domain
	}
	return q
}

// Validate checks the query.
func (q TopK) Validate(domain grid.Box) error {
	q = q.Normalize(domain)
	switch {
	case q.Dataset == "" || q.Field == "":
		return fmt.Errorf("query: missing dataset or field")
	case q.Timestep < 0:
		return fmt.Errorf("query: negative timestep")
	case q.K < 1:
		return fmt.Errorf("query: top-k needs k ≥ 1, got %d", q.K)
	case q.K > DefaultLimit:
		return fmt.Errorf("query: k %d exceeds the %d point limit", q.K, DefaultLimit)
	case q.Box.Empty() || !domain.ContainsBox(q.Box):
		return fmt.Errorf("query: bad box %v for domain %v", q.Box, domain)
	}
	return nil
}
