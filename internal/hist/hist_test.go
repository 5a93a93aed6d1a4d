package hist

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 1, 0); err == nil {
		t.Error("accepted zero bins")
	}
	if _, err := New(0, 0, 5); err == nil {
		t.Error("accepted zero width")
	}
	if _, err := FromCounts(0, 1, nil); err == nil {
		t.Error("accepted empty counts")
	}
}

func TestAddAndBin(t *testing.T) {
	h, _ := New(0, 10, 10)
	for _, v := range []float64{-5, 0, 9.99, 10, 55, 95, 1e9} {
		h.Add(v)
	}
	if h.Counts[0] != 3 { // -5, 0, 9.99
		t.Errorf("bin 0 = %d", h.Counts[0])
	}
	if h.Counts[1] != 1 || h.Counts[5] != 1 {
		t.Errorf("bins = %v", h.Counts)
	}
	if h.Counts[9] != 2 { // 95 and the huge value clamp into the open bin
		t.Errorf("open bin = %d", h.Counts[9])
	}
	if h.Total() != 7 {
		t.Errorf("total = %d", h.Total())
	}
}

// TestBinNeverLeavesRange feeds the binning values whose quotient no int
// holds: a conversion before the clamp turns them into a negative index.
func TestBinNeverLeavesRange(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		name          string
		v, min, width float64
		bins, want    int
	}{
		{"NaN value", nan, 0, 1, 4, 3},
		{"+Inf value", inf, 0, 1, 4, 3},
		{"-Inf value", -inf, 0, 1, 4, 0},
		{"+1e300 value", 1e300, 0, 1, 4, 3},
		{"-1e300 value", -1e300, 0, 1, 4, 0},
		{"tiny width", 1, 0, 1e-300, 4, 3},
		{"denormal width", 0.5, 0, math.SmallestNonzeroFloat64, 4, 3},
		{"min at -1e300", 0, -1e300, 1, 4, 3},
		{"value at min, tiny width", 0, 0, 1e-300, 4, 0},
		{"huge width", 1e300, 0, 1e308, 4, 0},
		{"last bin's lower edge", 3, 0, 1, 4, 3},
		{"just below it", math.Nextafter(3, 0), 0, 1, 4, 2},
		{"one bin, NaN", nan, 0, 1, 1, 0},
	} {
		h := &Histogram{Min: tc.min, Width: tc.width, Counts: make([]int64, tc.bins)}
		if got := h.Bin(tc.v); got != tc.want {
			t.Errorf("%s: Bin(%g) over [%g, +%g)×%d = %d, want %d", tc.name, tc.v, tc.min, tc.width, tc.bins, got, tc.want)
		}
	}
}

func TestEdgeLabels(t *testing.T) {
	h, _ := New(0, 10, 3)
	if h.EdgeLabel(0) != "[0,10)" || h.EdgeLabel(2) != "[20,..)" {
		t.Errorf("labels: %q %q", h.EdgeLabel(0), h.EdgeLabel(2))
	}
}

func TestQuantileUniform(t *testing.T) {
	h, _ := New(0, 1, 100)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		h.Add(rng.Float64() * 100)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		got := h.Quantile(q)
		want := q * 100
		if math.Abs(got-want) > 1.5 {
			t.Errorf("Quantile(%g) = %g, want ≈ %g", q, got, want)
		}
	}
	// clamping
	if h.Quantile(-1) > h.Quantile(0.001) {
		t.Error("negative q not clamped")
	}
	if h.Quantile(2) < h.Quantile(0.999) {
		t.Error("q>1 not clamped")
	}
}

func TestQuantileEmpty(t *testing.T) {
	h, _ := New(5, 1, 4)
	if got := h.Quantile(0.5); got != 5 {
		t.Errorf("empty quantile = %g", got)
	}
}

func TestStringRendersBars(t *testing.T) {
	h, _ := New(0, 10, 3)
	for i := 0; i < 1000; i++ {
		h.Add(1)
	}
	h.Add(15)
	s := h.String()
	if !strings.Contains(s, "#") {
		t.Error("no bars rendered")
	}
	if !strings.Contains(s, "[0,10)") || !strings.Contains(s, "1000") {
		t.Errorf("rendering missing content:\n%s", s)
	}
}
