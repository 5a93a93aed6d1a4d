package stencil

import (
	"math"
	"math/rand"
	"testing"

	"github.com/turbdb/turbdb/internal/field"
	"github.com/turbdb/turbdb/internal/grid"
)

// curlRef is the per-point curl from Deriv, in the minuend − subtrahend
// order the field catalog's per-point evaluator uses.
func curlRef(s Stencil, bl *field.Block, p grid.Point, dx float64) [3]float64 {
	return [3]float64{
		s.Deriv(bl, p, 2, AxisY, dx) - s.Deriv(bl, p, 1, AxisZ, dx),
		s.Deriv(bl, p, 0, AxisZ, dx) - s.Deriv(bl, p, 2, AxisX, dx),
		s.Deriv(bl, p, 1, AxisX, dx) - s.Deriv(bl, p, 0, AxisY, dx),
	}
}

func checkCurlRow(t *testing.T, s Stencil, bl *field.Block, p grid.Point, n int, dx float64) {
	t.Helper()
	out := make([]float64, 3*n+1)
	out[3*n] = math.Inf(1) // sentinel: the kernel writes 3·n values, no more
	s.CurlRow(slabOf(bl), p, n, dx, out)
	if !math.IsInf(out[3*n], 1) {
		t.Fatalf("order %d: CurlRow with n=%d wrote past out[:%d]", s.Order, n, 3*n)
	}
	for i := 0; i < n; i++ {
		want := curlRef(s, bl, p.Add(i, 0, 0), dx)
		for c := 0; c < 3; c++ {
			if !sameOrBothNaN(out[3*i+c], want[c]) {
				t.Fatalf("order %d n %d: CurlRow[%d][%d] = %x, Deriv pair = %x",
					s.Order, n, i, c, math.Float64bits(out[3*i+c]), math.Float64bits(want[c]))
			}
		}
	}
}

// specials are stored values where a slab that widened its floats
// differently from Deriv would first show: signed zeros (a tap sum of
// zeros keeps only its sign), infinities (Inf − Inf), NaN, float32
// denormals (exact in float64, flushed by nothing) and the float32 extremes.
var specials = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40,
	math.MaxFloat32, -math.MaxFloat32,
}

// sameOrBothNaN is the bit-identity contract: the same bits wherever the
// reference is a number, NaN exactly where it is NaN. Which of two NaN
// operands an addition returns, and so a NaN's sign, is the compiler's
// choice of operand order, in the reference as in the kernel.
func sameOrBothNaN(got, want float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// CurlRow fuses six derivatives and three subtractions per point into one
// loop over a float64 slab; the engine relies on it being bit-for-bit the
// per-point curl of the float32 block the slab was decoded from, for every
// order, box geometry and run length — the empty run and the lone point
// included — and for blocks seeded with special values, from a lone one
// among ordinary data to nothing but specials.
func TestCurlRowMatchesDerivBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, order := range Orders() {
		s := MustGet(order)
		for trial := 0; trial < 20; trial++ {
			for _, n := range []int{0, 1, 7, 32} {
				ny, nz := 1+rng.Intn(3), 1+rng.Intn(3)
				lo := grid.Point{X: rng.Intn(13) - 6, Y: rng.Intn(13) - 6, Z: rng.Intn(13) - 6}
				inner := grid.Box{Lo: lo, Hi: lo.Add(max(n, 1), ny, nz)}
				bl := randomBlock(rng, inner.Expand(s.HalfWidth), 3)
				if density := []float64{0, 0.01, 0.2, 1}[trial%4]; density > 0 {
					palette := specials
					if trial%8 == 7 {
						palette = specials[:2] // nothing but signed zeros
					}
					for i := range bl.Data {
						if rng.Float64() < density {
							bl.Data[i] = palette[rng.Intn(len(palette))]
						}
					}
				}
				p := grid.Point{X: lo.X, Y: lo.Y + rng.Intn(ny), Z: lo.Z + rng.Intn(nz)}
				checkCurlRow(t, s, bl, p, n, 0.05+rng.Float64())
			}
		}
	}
}

// The kernels slice their tap rows out of Slab.Data once per row. On the
// first run of the first plane and the last run of the last plane of a
// slab that is exactly the run plus its halo — Data ends with the last
// +HalfWidth tap — those windows must stay inside Data (no panic) and on
// their own rows (the values still match Deriv).
func TestRowKernelsAtBlockCorners(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const nx, ny, nz = 5, 2, 3
	for _, order := range Orders() {
		s := MustGet(order)
		h := s.HalfWidth
		inner := grid.Box{Lo: grid.Point{X: -3, Y: 4, Z: -1}, Hi: grid.Point{X: -3 + nx, Y: 4 + ny, Z: -1 + nz}}
		first := inner.Lo
		last := grid.Point{X: inner.Lo.X, Y: inner.Hi.Y - 1, Z: inner.Hi.Z - 1}
		const dx = 0.125

		bl := randomBlock(rng, inner.Expand(h), 3)
		if sl := slabOf(bl); len(sl.Data) != cap(sl.Data) {
			t.Fatal("slab has spare capacity; the corner rows would not end at the end of Data")
		}
		grad := make([]float64, 9*nx)
		for _, p := range []grid.Point{first, last} {
			checkCurlRow(t, s, bl, p, nx, dx)
			s.GradientRow(slabOf(bl), p, nx, dx, grad)
			for i := 0; i < nx; i++ {
				want := s.Gradient(bl, p.Add(i, 0, 0), dx)
				for r := 0; r < 3; r++ {
					for c := 0; c < 3; c++ {
						if math.Float64bits(grad[9*i+3*r+c]) != math.Float64bits(want[r][c]) {
							t.Fatalf("order %d at %v: GradientRow[%d][%d][%d] differs from Gradient", order, p, i, r, c)
						}
					}
				}
			}
		}

		// DerivRow needs the halo along its own axis only: a block with no
		// margin on the other two must do.
		row := make([]float64, nx)
		for axis, margin := range map[Axis]grid.Point{AxisX: {X: h}, AxisY: {Y: h}, AxisZ: {Z: h}} {
			box := grid.Box{
				Lo: inner.Lo.Add(-margin.X, -margin.Y, -margin.Z),
				Hi: inner.Hi.Add(margin.X, margin.Y, margin.Z),
			}
			for nc := 1; nc <= 3; nc++ {
				abl := randomBlock(rng, box, nc)
				asl := slabOf(abl)
				for _, p := range []grid.Point{first, last} {
					for c := 0; c < nc; c++ {
						s.DerivRow(asl, p, nx, c, axis, dx, row)
						for i := 0; i < nx; i++ {
							want := s.Deriv(abl, p.Add(i, 0, 0), c, axis, dx)
							if math.Float64bits(row[i]) != math.Float64bits(want) {
								t.Fatalf("order %d axis %v nc %d c %d at %v: DerivRow[%d] differs from Deriv", order, axis, nc, c, p, i)
							}
						}
					}
				}
			}
		}
	}
}

// Slabs are pooled: after Reset to a smaller box their Data has spare
// capacity holding the previous slab. A run whose taps leave the slab is a
// caller bug and must panic, as indexing would, not read that stale tail.
func TestRowKernelsPanicOutsidePooledBlock(t *testing.T) {
	s := MustGet(4)
	sl := slabOf(randomBlock(rand.New(rand.NewSource(6)), grid.Box{Hi: grid.Point{X: 12, Y: 12, Z: 12}}, 3))
	sl.Reset(grid.Box{Hi: grid.Point{X: 8, Y: 8, Z: 8}}, 3)
	if cap(sl.Data) == len(sl.Data) {
		t.Fatal("Reset dropped the spare capacity this test needs")
	}
	defer func() {
		if recover() == nil {
			t.Error("CurlRow on the last plane of a slab without halo did not panic")
		}
	}()
	s.CurlRow(sl, grid.Point{X: 2, Y: 4, Z: 7}, 4, 1, make([]float64, 12))
}
