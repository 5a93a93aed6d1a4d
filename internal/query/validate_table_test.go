package query

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/turbdb/turbdb/internal/grid"
)

// The validation tables pin down every rejection rule for malformed
// queries: bad thresholds, degenerate or out-of-domain ROI boxes, missing
// field/dataset names, unsupported FD orders and bad limits. Each case
// names the substring the error must carry, so a rule can't silently
// change meaning.

var testDomain = grid.Box{Lo: grid.Point{}, Hi: grid.Point{X: 64, Y: 64, Z: 64}}

func boxOf(lo, hi int) grid.Box {
	return grid.Box{Lo: grid.Point{X: lo, Y: lo, Z: lo}, Hi: grid.Point{X: hi, Y: hi, Z: hi}}
}

func TestThresholdValidateTable(t *testing.T) {
	valid := Threshold{Dataset: "mhd", Field: "vorticity", Threshold: 5}
	cases := []struct {
		name    string
		mutate  func(q *Threshold)
		wantErr string // "" = valid
	}{
		{"valid defaults", func(q *Threshold) {}, ""},
		{"valid explicit box", func(q *Threshold) { q.Box = boxOf(8, 16) }, ""},
		{"valid box touching domain edge", func(q *Threshold) { q.Box = boxOf(0, 64) }, ""},
		{"valid zero threshold", func(q *Threshold) { q.Threshold = 0 }, ""},
		{"valid every FD order 2", func(q *Threshold) { q.FDOrder = 2 }, ""},
		{"valid every FD order 6", func(q *Threshold) { q.FDOrder = 6 }, ""},
		{"valid every FD order 8", func(q *Threshold) { q.FDOrder = 8 }, ""},
		{"missing dataset", func(q *Threshold) { q.Dataset = "" }, "missing dataset"},
		{"missing field", func(q *Threshold) { q.Field = "" }, "missing field"},
		{"negative timestep", func(q *Threshold) { q.Timestep = -1 }, "negative timestep"},
		{"negative threshold", func(q *Threshold) { q.Threshold = -0.5 }, "negative threshold"},
		{"negative limit", func(q *Threshold) { q.Limit = -3 }, "limit must be positive"},
		{"inverted box", func(q *Threshold) {
			q.Box = grid.Box{Lo: grid.Point{X: 8, Y: 8, Z: 8}, Hi: grid.Point{X: 4, Y: 4, Z: 4}}
		}, "empty box"},
		{"flat box", func(q *Threshold) {
			q.Box = grid.Box{Lo: grid.Point{X: 4, Y: 4, Z: 4}, Hi: grid.Point{X: 4, Y: 8, Z: 8}}
		}, "empty box"},
		{"box past domain", func(q *Threshold) { q.Box = boxOf(32, 128) }, "outside domain"},
		{"box negative corner", func(q *Threshold) {
			q.Box = grid.Box{Lo: grid.Point{X: -4, Y: 0, Z: 0}, Hi: grid.Point{X: 8, Y: 8, Z: 8}}
		}, "outside domain"},
		{"odd FD order", func(q *Threshold) { q.FDOrder = 3 }, "finite-difference order"},
		{"oversized FD order", func(q *Threshold) { q.FDOrder = 10 }, "finite-difference order"},
		{"negative FD order", func(q *Threshold) { q.FDOrder = -4 }, "finite-difference order"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := valid
			tc.mutate(&q)
			err := q.Validate(testDomain)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate accepted malformed query %+v", q)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestPDFValidateTable(t *testing.T) {
	valid := PDF{Dataset: "mhd", Field: "vorticity", Bins: 10, Width: 5}
	cases := []struct {
		name    string
		mutate  func(q *PDF)
		wantErr string
	}{
		{"valid defaults", func(q *PDF) {}, ""},
		{"valid single bin", func(q *PDF) { q.Bins = 1 }, ""},
		{"valid negative min", func(q *PDF) { q.Min = -10 }, ""},
		{"missing dataset", func(q *PDF) { q.Dataset = "" }, "missing dataset or field"},
		{"missing field", func(q *PDF) { q.Field = "" }, "missing dataset or field"},
		{"negative timestep", func(q *PDF) { q.Timestep = -2 }, "negative timestep"},
		{"zero bins", func(q *PDF) { q.Bins = 0 }, "1 bin"},
		{"negative bins", func(q *PDF) { q.Bins = -1 }, "1 bin"},
		{"zero width", func(q *PDF) { q.Width = 0 }, "width must be positive"},
		{"negative width", func(q *PDF) { q.Width = -1 }, "width must be positive"},
		{"valid bins at limit", func(q *PDF) { q.Bins = DefaultLimit }, ""},
		{"bins beyond limit", func(q *PDF) { q.Bins = DefaultLimit + 1 }, "exceed"},
		{"NaN min", func(q *PDF) { q.Min = math.NaN() }, "min must be finite"},
		{"+Inf min", func(q *PDF) { q.Min = math.Inf(1) }, "min must be finite"},
		{"-Inf min", func(q *PDF) { q.Min = math.Inf(-1) }, "min must be finite"},
		{"NaN width", func(q *PDF) { q.Width = math.NaN() }, "positive and finite"},
		{"+Inf width", func(q *PDF) { q.Width = math.Inf(1) }, "positive and finite"},
		{"valid tiny width", func(q *PDF) { q.Width = 1e-300 }, ""},
		{"valid FD order 8", func(q *PDF) { q.FDOrder = 8 }, ""},
		{"odd FD order", func(q *PDF) { q.FDOrder = 3 }, "finite-difference order"},
		{"oversized FD order", func(q *PDF) { q.FDOrder = 10 }, "finite-difference order"},
		{"inverted box", func(q *PDF) { q.Box = grid.Box{Lo: grid.Point{X: 9, Y: 9, Z: 9}, Hi: grid.Point{X: 3, Y: 3, Z: 3}} }, "bad box"},
		{"box past domain", func(q *PDF) { q.Box = boxOf(0, 65) }, "bad box"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := valid
			tc.mutate(&q)
			err := q.Validate(testDomain)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate accepted malformed query %+v", q)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestTopKValidateTable(t *testing.T) {
	valid := TopK{Dataset: "mhd", Field: "vorticity", K: 10}
	cases := []struct {
		name    string
		mutate  func(q *TopK)
		wantErr string
	}{
		{"valid defaults", func(q *TopK) {}, ""},
		{"valid k at limit", func(q *TopK) { q.K = DefaultLimit }, ""},
		{"missing dataset", func(q *TopK) { q.Dataset = "" }, "missing dataset or field"},
		{"missing field", func(q *TopK) { q.Field = "" }, "missing dataset or field"},
		{"negative timestep", func(q *TopK) { q.Timestep = -1 }, "negative timestep"},
		{"zero k", func(q *TopK) { q.K = 0 }, "k ≥ 1"},
		{"negative k", func(q *TopK) { q.K = -5 }, "k ≥ 1"},
		{"k beyond limit", func(q *TopK) { q.K = DefaultLimit + 1 }, "point limit"},
		{"valid FD order 2", func(q *TopK) { q.FDOrder = 2 }, ""},
		{"odd FD order", func(q *TopK) { q.FDOrder = 5 }, "finite-difference order"},
		{"negative FD order", func(q *TopK) { q.FDOrder = -2 }, "finite-difference order"},
		{"inverted box", func(q *TopK) { q.Box = grid.Box{Lo: grid.Point{X: 9, Y: 9, Z: 9}, Hi: grid.Point{X: 3, Y: 3, Z: 3}} }, "bad box"},
		{"box past domain", func(q *TopK) { q.Box = boxOf(60, 70) }, "bad box"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := valid
			tc.mutate(&q)
			err := q.Validate(testDomain)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate accepted malformed query %+v", q)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestNormalizeDefaults pins the default-filling behavior the wire protocol
// relies on: a zero Box resolves to the domain, FDOrder and Limit get their
// production defaults, and explicit values are never overridden.
func TestNormalizeDefaults(t *testing.T) {
	q := Threshold{Dataset: "d", Field: "f"}.Normalize(testDomain)
	if q.FDOrder != DefaultFDOrder || q.Limit != DefaultLimit || q.Box != testDomain {
		t.Fatalf("Normalize defaults wrong: %+v", q)
	}
	exp := Threshold{Dataset: "d", Field: "f", FDOrder: 8, Limit: 5, Box: boxOf(0, 8)}
	if got := exp.Normalize(testDomain); !reflect.DeepEqual(got, exp) {
		t.Fatalf("Normalize overrode explicit values: %+v", got)
	}
	p := PDF{Dataset: "d", Field: "f", Bins: 2, Width: 1}.Normalize(testDomain)
	if p.FDOrder != DefaultFDOrder || p.Box != testDomain {
		t.Fatalf("PDF Normalize defaults wrong: %+v", p)
	}
	k := TopK{Dataset: "d", Field: "f", K: 3}.Normalize(testDomain)
	if k.FDOrder != DefaultFDOrder || k.Box != testDomain {
		t.Fatalf("TopK Normalize defaults wrong: %+v", k)
	}
}
