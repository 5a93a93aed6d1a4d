package stencil

import (
	"math"
	"math/rand"
	"testing"

	"github.com/turbdb/turbdb/internal/field"
	"github.com/turbdb/turbdb/internal/grid"
)

// randomBlock builds a block with nc components over box filled with
// normally distributed values (float32-truncated, as stored data are).
func randomBlock(rng *rand.Rand, box grid.Box, nc int) *field.Block {
	bl := field.NewBlock(box, nc)
	for i := range bl.Data {
		bl.Data[i] = float32(rng.NormFloat64())
	}
	return bl
}

// slabOf decodes bl into a float64 slab over the same box, through the
// serialized form a scan decodes from.
func slabOf(bl *field.Block) *field.Slab {
	sl := &field.Slab{}
	sl.Reset(bl.Bounds, bl.NComp)
	sl.DecodeFrom(bl.Bytes(), bl.Bounds, bl.Bounds)
	return sl
}

// The row kernels are drop-in replacements for per-point evaluation: the
// engine relies on DerivRow over a slab being bit-for-bit identical to n
// calls of Deriv over the float32 block it was decoded from, for every
// order, axis, component and run geometry.
func TestDerivRowMatchesDerivBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, order := range Orders() {
		s := MustGet(order)
		h := s.HalfWidth
		for trial := 0; trial < 30; trial++ {
			nx := 1 + rng.Intn(12)
			ny := 1 + rng.Intn(4)
			nz := 1 + rng.Intn(4)
			lo := grid.Point{X: rng.Intn(9) - 4, Y: rng.Intn(9) - 4, Z: rng.Intn(9) - 4}
			inner := grid.Box{Lo: lo, Hi: lo.Add(nx, ny, nz)}
			nc := 1 + rng.Intn(3)
			bl := randomBlock(rng, inner.Expand(h), nc)
			sl := slabOf(bl)
			dx := 0.05 + rng.Float64()
			out := make([]float64, nx)
			for _, axis := range []Axis{AxisX, AxisY, AxisZ} {
				for c := 0; c < nc; c++ {
					p := grid.Point{X: lo.X, Y: lo.Y + rng.Intn(ny), Z: lo.Z + rng.Intn(nz)}
					s.DerivRow(sl, p, nx, c, axis, dx, out)
					for i := 0; i < nx; i++ {
						want := s.Deriv(bl, p.Add(i, 0, 0), c, axis, dx)
						if math.Float64bits(out[i]) != math.Float64bits(want) {
							t.Fatalf("order %d axis %v c %d: DerivRow[%d] = %x, Deriv = %x",
								order, axis, c, i, math.Float64bits(out[i]), math.Float64bits(want))
						}
					}
				}
			}
		}
	}
}

func TestGradientRowMatchesGradientBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, order := range Orders() {
		s := MustGet(order)
		h := s.HalfWidth
		for trial := 0; trial < 20; trial++ {
			nx := 1 + rng.Intn(10)
			lo := grid.Point{X: rng.Intn(7) - 3, Y: rng.Intn(7) - 3, Z: rng.Intn(7) - 3}
			inner := grid.Box{Lo: lo, Hi: lo.Add(nx, 3, 3)}
			bl := randomBlock(rng, inner.Expand(h), 3)
			dx := 0.05 + rng.Float64()
			out := make([]float64, 9*nx)
			p := grid.Point{X: lo.X, Y: lo.Y + rng.Intn(3), Z: lo.Z + rng.Intn(3)}
			s.GradientRow(slabOf(bl), p, nx, dx, out)
			for i := 0; i < nx; i++ {
				want := s.Gradient(bl, p.Add(i, 0, 0), dx)
				for r := 0; r < 3; r++ {
					for c := 0; c < 3; c++ {
						got := out[9*i+3*r+c]
						if math.Float64bits(got) != math.Float64bits(want[r][c]) {
							t.Fatalf("order %d: GradientRow[%d][%d][%d] = %g, Gradient = %g",
								order, i, r, c, got, want[r][c])
						}
					}
				}
			}
		}
	}
}

// A one-point run is the degenerate row; zero-length runs must be no-ops.
func TestDerivRowEdgeLengths(t *testing.T) {
	s := MustGet(4)
	bl := randomBlock(rand.New(rand.NewSource(3)), grid.Box{Lo: grid.Point{X: -2, Y: -2, Z: -2}, Hi: grid.Point{X: 3, Y: 3, Z: 3}}, 1)
	sl := slabOf(bl)
	out := []float64{math.NaN()}
	s.DerivRow(sl, grid.Point{}, 0, 0, AxisX, 1, out[:0])
	if !math.IsNaN(out[0]) {
		t.Error("DerivRow with n=0 wrote to out")
	}
	s.DerivRow(sl, grid.Point{}, 1, 0, AxisY, 1, out)
	if math.Float64bits(out[0]) != math.Float64bits(s.Deriv(bl, grid.Point{}, 0, AxisY, 1)) {
		t.Error("DerivRow with n=1 differs from Deriv")
	}
}
