// Package hist provides histogram utilities for field-norm distributions:
// accumulation, merging across nodes, rendering (the paper's Fig. 2 shows
// the vorticity-norm PDF on a log scale), and approximate quantiles, which
// scientists use to pick threshold values ("this coarse view of the data
// can be used by scientists to guide the selection of threshold values").
package hist

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a fixed-bin histogram of non-negative norms. The last bin is
// open-ended.
type Histogram struct {
	Min    float64
	Width  float64
	Counts []int64
}

// New creates a histogram with bins buckets of the given width starting at
// min.
func New(min, width float64, bins int) (*Histogram, error) {
	if bins < 1 {
		return nil, fmt.Errorf("hist: need ≥ 1 bin")
	}
	if width <= 0 {
		return nil, fmt.Errorf("hist: width must be positive")
	}
	return &Histogram{Min: min, Width: width, Counts: make([]int64, bins)}, nil
}

// FromCounts wraps externally computed counts (e.g. a mediator PDF result).
func FromCounts(min, width float64, counts []int64) (*Histogram, error) {
	h, err := New(min, width, len(counts))
	if err != nil {
		return nil, err
	}
	copy(h.Counts, counts)
	return h, nil
}

// Bin returns the bucket index for a value, clamped into range.
func (h *Histogram) Bin(v float64) int { return Bin(v, h.Min, h.Width, len(h.Counts)) }

// Bin returns the index of v among bins buckets of a positive width
// starting at min: bucket 0 below min, and the last, open-ended bucket from
// its lower edge up. The quotient is compared before it is converted, so
// NaN, +Inf and quotients no int holds land in the last bucket too; the
// index is always in [0, bins).
func Bin(v, min, width float64, bins int) int {
	if v < min {
		return 0
	}
	x := (v - min) / width
	if !(x < float64(bins-1)) {
		return bins - 1
	}
	return int(x)
}

// Add records one observation.
func (h *Histogram) Add(v float64) { h.Counts[h.Bin(v)]++ }

// Total returns the number of observations.
func (h *Histogram) Total() int64 {
	var t int64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// EdgeLabel renders the value range of bin i as the paper prints them:
// "[lo,hi)" with the last bin open ("[lo,..)").
func (h *Histogram) EdgeLabel(i int) string {
	lo := h.Min + float64(i)*h.Width
	if i == len(h.Counts)-1 {
		return fmt.Sprintf("[%g,..)", lo)
	}
	return fmt.Sprintf("[%g,%g)", lo, lo+h.Width)
}

// Quantile returns an approximate value v such that a fraction q of
// observations lie below v, by linear interpolation within the containing
// bin. q is clamped to [0, 1].
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	total := h.Total()
	if total == 0 {
		return h.Min
	}
	target := q * float64(total)
	var cum float64
	for i, c := range h.Counts {
		next := cum + float64(c)
		if next >= target && c > 0 {
			frac := (target - cum) / float64(c)
			return h.Min + (float64(i)+frac)*h.Width
		}
		cum = next
	}
	return h.Min + float64(len(h.Counts))*h.Width
}

// String renders a log-scale bar chart like the paper's Fig. 2.
func (h *Histogram) String() string {
	var b strings.Builder
	maxLog := 0.0
	for _, c := range h.Counts {
		if c > 0 {
			if l := math.Log10(float64(c)); l > maxLog {
				maxLog = l
			}
		}
	}
	for i, c := range h.Counts {
		bar := 0
		if c > 0 && maxLog > 0 {
			bar = int(math.Log10(float64(c)) / maxLog * 50)
		}
		fmt.Fprintf(&b, "%12s %10d %s\n", h.EdgeLabel(i), c, strings.Repeat("#", bar))
	}
	return b.String()
}
