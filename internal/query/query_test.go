package query

import (
	"errors"
	"math"
	"sort"
	"testing"

	"github.com/turbdb/turbdb/internal/grid"
)

var domain = grid.Box{Hi: grid.Point{X: 64, Y: 64, Z: 64}}

func validThreshold() Threshold {
	return Threshold{Dataset: "mhd", Field: "vorticity", Timestep: 0, Threshold: 5}
}

func TestThresholdNormalize(t *testing.T) {
	q := validThreshold().Normalize(domain)
	if q.FDOrder != DefaultFDOrder {
		t.Errorf("FDOrder = %d", q.FDOrder)
	}
	if q.Limit != DefaultLimit {
		t.Errorf("Limit = %d", q.Limit)
	}
	if q.Box != domain {
		t.Errorf("Box = %v", q.Box)
	}
	// explicit values preserved
	q2 := Threshold{Dataset: "d", Field: "f", FDOrder: 8, Limit: 10,
		Box: grid.Box{Hi: grid.Point{X: 8, Y: 8, Z: 8}}}.Normalize(domain)
	if q2.FDOrder != 8 || q2.Limit != 10 || q2.Box == domain {
		t.Errorf("explicit values clobbered: %+v", q2)
	}
}

func TestThresholdValidate(t *testing.T) {
	if err := validThreshold().Validate(domain); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	bad := []Threshold{
		{Field: "f", Threshold: 1},   // missing dataset
		{Dataset: "d", Threshold: 1}, // missing field
		{Dataset: "d", Field: "f", Timestep: -1},
		{Dataset: "d", Field: "f", Threshold: -1},
		{Dataset: "d", Field: "f", FDOrder: 3},
		{Dataset: "d", Field: "f", Limit: -5},
		{Dataset: "d", Field: "f", Box: grid.Box{Lo: grid.Point{X: 1}, Hi: grid.Point{X: 1, Y: 2, Z: 2}}}, // empty box
		{Dataset: "d", Field: "f", Box: grid.Box{Hi: grid.Point{X: 65, Y: 1, Z: 1}}},                      // outside domain
	}
	for i, q := range bad {
		if err := q.Validate(domain); err == nil {
			t.Errorf("bad query %d accepted: %+v", i, q)
		}
	}
}

func TestErrTooManyPoints(t *testing.T) {
	err := &ErrTooManyPoints{Limit: 100, Seen: 150}
	if !errors.Is(err, ErrThresholdTooLow) {
		t.Error("ErrTooManyPoints does not match ErrThresholdTooLow")
	}
	if err.Error() == "" {
		t.Error("empty error message")
	}
}

func TestResultPointRoundTrip(t *testing.T) {
	p := grid.Point{X: 12, Y: 34, Z: 56}
	rp := PointFor(p, 7.25)
	if rp.Coords() != p {
		t.Errorf("Coords = %v, want %v", rp.Coords(), p)
	}
	if rp.Value != 7.25 {
		t.Errorf("Value = %v", rp.Value)
	}
}

func TestWireBytes(t *testing.T) {
	if WireBytes(10) != 10*SerializedPointSize {
		t.Errorf("WireBytes = %d", WireBytes(10))
	}
}

func TestPDFValidateAndBin(t *testing.T) {
	q := PDF{Dataset: "d", Field: "vorticity", Bins: 10, Min: 0, Width: 10}
	if err := q.Validate(domain); err != nil {
		t.Fatalf("valid PDF rejected: %v", err)
	}
	q = q.Normalize(domain)
	cases := []struct {
		v    float64
		want int
	}{{-5, 0}, {0, 0}, {9.99, 0}, {10, 1}, {55, 5}, {95, 9}, {1000, 9}}
	for _, c := range cases {
		if got := q.Bin(c.v); got != c.want {
			t.Errorf("Bin(%g) = %d, want %d", c.v, got, c.want)
		}
	}
	bad := []PDF{
		{Dataset: "d", Field: "f", Bins: 0, Width: 1},
		{Dataset: "d", Field: "f", Bins: 5, Width: 0},
		{Dataset: "d", Field: "f", Bins: 5, Width: 1, Timestep: -1},
		{Field: "f", Bins: 5, Width: 1},
	}
	for i, q := range bad {
		if err := q.Validate(domain); err == nil {
			t.Errorf("bad PDF %d accepted", i)
		}
	}
}

func TestTopKValidate(t *testing.T) {
	q := TopK{Dataset: "d", Field: "f", K: 100}
	if err := q.Validate(domain); err != nil {
		t.Fatalf("valid TopK rejected: %v", err)
	}
	bad := []TopK{
		{Dataset: "d", Field: "f", K: 0},
		{Dataset: "d", Field: "f", K: DefaultLimit + 1},
		{Dataset: "d", K: 5},
		{Dataset: "d", Field: "f", K: 5, Timestep: -2},
	}
	for i, q := range bad {
		if err := q.Validate(domain); err == nil {
			t.Errorf("bad TopK %d accepted", i)
		}
	}
}

func TestPointWireSizeKnob(t *testing.T) {
	t.Cleanup(func() { SetPointWireSize(0) })
	if WireBytes(10) != 10*SerializedPointSize {
		t.Fatalf("default WireBytes(10) = %d, want %d", WireBytes(10), 10*SerializedPointSize)
	}
	SetPointWireSize(FramePointSize)
	if WireBytes(10) != 10*FramePointSize {
		t.Fatalf("frame WireBytes(10) = %d, want %d", WireBytes(10), 10*FramePointSize)
	}
	SetPointWireSize(0) // non-positive restores the default
	if PointWireSize() != SerializedPointSize {
		t.Fatalf("reset PointWireSize = %d, want %d", PointWireSize(), SerializedPointSize)
	}
}

// RanksBefore is a strict total order over every float32 a norm can be: a
// NaN beyond the infinity of its sign, equal numbers (±0 too) and NaNs of
// one sign tied and broken by code, larger values first. Outranked holds
// exactly when a number at most max ranks after the k-th point.
func TestRanksBeforeIsTotalAndOutrankedAgrees(t *testing.T) {
	nan := float32(math.NaN())
	negNaN := float32(math.Copysign(math.NaN(), -1))
	inf := float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	values := []float32{nan, negNaN, inf, -inf, 0, negZero, 1, 2, -1, math.MaxFloat32}
	var pts []ResultPoint
	for _, v := range values {
		pts = append(pts, ResultPoint{Code: 9, Value: v}, ResultPoint{Code: 3, Value: v})
	}
	for _, a := range pts {
		if RanksBefore(a, a) {
			t.Fatalf("%v ranks before itself", a)
		}
		for _, b := range pts {
			if a != b && RanksBefore(a, b) == RanksBefore(b, a) && !(a.Code == b.Code && sameRank(a.Value, b.Value)) {
				t.Fatalf("%v and %v are not ordered", a, b)
			}
			for _, c := range pts {
				if RanksBefore(a, b) && RanksBefore(b, c) && !RanksBefore(a, c) {
					t.Fatalf("%v < %v < %v but not %v < %v", a, b, c, a, c)
				}
			}
		}
	}
	sort.Slice(pts, func(i, j int) bool { return RanksBefore(pts[i], pts[j]) })
	if first, last := pts[0], pts[len(pts)-1]; nanSign(first.Value) != 1 || first.Code != 3 || nanSign(last.Value) != -1 || last.Code != 9 {
		t.Fatalf("order runs from %v to %v, want +NaN (code 3) to −NaN (code 9)", first, last)
	}
	if RanksBefore(ResultPoint{Code: 9, Value: negZero}, ResultPoint{Code: 3, Value: 0}) {
		t.Error("−0 outranks +0 of a smaller code")
	}

	for _, tc := range []struct {
		max  float64
		kth  float32
		want bool
	}{
		{1, 2, true},
		{2, 2, false}, // a point at the k-th value may have the smaller code
		{math.Nextafter(2, 3), 2, false},
		{3, 2, false},
		{math.Inf(1), nan, true}, // every number ranks after a +NaN
		{math.Inf(-1), negNaN, false},
		{math.Inf(1), inf, false},
		{-1, 0, true},
		{0, negZero, false},
	} {
		if got := Outranked(tc.max, ResultPoint{Value: tc.kth}); got != tc.want {
			t.Errorf("Outranked(%v, %v) = %v, want %v", tc.max, tc.kth, got, tc.want)
		}
	}
}

// sameRank reports whether two values tie under RanksBefore.
func sameRank(a, b float32) bool {
	return nanSign(a) == nanSign(b) && (a == b || a != a)
}
