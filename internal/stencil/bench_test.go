package stencil

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/turbdb/turbdb/internal/grid"
)

// benchRun is the row length per DerivRow/GradientRow call — one atom side
// would be 8; 16 amortizes the per-row setup the way scanShard's extended
// blocks do for multi-atom runs.
const benchRun = 16

// BenchmarkDerivRow measures the raw cost of one finite-difference
// derivative per point, per FD order, on the unrolled row kernel versus the
// per-point Deriv baseline.
func BenchmarkDerivRow(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for _, order := range Orders() {
		s := MustGet(order)
		inner := grid.Box{Hi: grid.Point{X: benchRun, Y: 1, Z: 1}}
		bl := randomBlock(rng, inner.Expand(s.HalfWidth), 3)
		sl := slabOf(bl)
		out := make([]float64, benchRun)
		b.Run(fmt.Sprintf("o%d/perpoint", order), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for x := 0; x < benchRun; x++ {
					out[x] = s.Deriv(bl, grid.Point{X: x}, 0, AxisX, 0.01)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*benchRun), "ns/point")
		})
		b.Run(fmt.Sprintf("o%d/row", order), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.DerivRow(sl, grid.Point{}, benchRun, 0, AxisX, 0.01, out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*benchRun), "ns/point")
		})
	}
}

// BenchmarkGradientRow measures the full 3×3 velocity-gradient row kernel
// (9 derivatives per point), the dominant cost of qcriterion/rinvariant/
// gradnorm scans.
func BenchmarkGradientRow(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	for _, order := range Orders() {
		s := MustGet(order)
		inner := grid.Box{Hi: grid.Point{X: benchRun, Y: 1, Z: 1}}
		sl := slabOf(randomBlock(rng, inner.Expand(s.HalfWidth), 3))
		out := make([]float64, 9*benchRun)
		b.Run(fmt.Sprintf("o%d", order), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.GradientRow(sl, grid.Point{}, benchRun, 0.01, out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*benchRun), "ns/point")
		})
	}
}

// BenchmarkCurlRow measures the single-pass curl row kernel (6 derivatives
// and 3 subtractions per point), the whole of a vorticity or current row
// but for the norm.
func BenchmarkCurlRow(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	for _, order := range Orders() {
		s := MustGet(order)
		inner := grid.Box{Hi: grid.Point{X: benchRun, Y: 1, Z: 1}}
		sl := slabOf(randomBlock(rng, inner.Expand(s.HalfWidth), 3))
		out := make([]float64, 3*benchRun)
		b.Run(fmt.Sprintf("o%d", order), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.CurlRow(sl, grid.Point{}, benchRun, 0.01, out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*benchRun), "ns/point")
		})
	}
}
