package derived

import (
	"math"
	"math/rand"
	"testing"

	"github.com/turbdb/turbdb/internal/field"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/stencil"
)

// specials are the stored values where a row kernel that is only
// "equivalent" to the per-point path first shows: 0.0 + (−0.0) in a tap sum
// that does not start at zero, Inf − Inf on the antisymmetric diagonal of
// the Q-criterion, the so·so − ss·ss round trip at the overflow edge, and
// denormals under a reordered product.
var specials = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40,
	math.MaxFloat32, -math.MaxFloat32,
}

// sameOrBothNaN is the special-values contract: the same bits wherever the
// per-point reference is a number, NaN exactly where it is NaN.
func sameOrBothNaN(got, want float64) bool {
	if math.IsNaN(want) {
		return math.IsNaN(got)
	}
	return math.Float64bits(got) == math.Float64bits(want)
}

// Differential property over special values: every catalog field at every
// FD order, on blocks seeded with signed zeros, infinities, NaNs, denormals
// and MaxFloat32 at several densities (down to a lone special value among
// ordinary data, up to nothing but specials, and last nothing but signed
// zeros, where every tap sum is a sum of zeros and only its sign is left to
// get wrong), evaluates through NormRow to what per-point Norm and Eval
// give.
func TestRowPathMatchesPerPointOnSpecialValues(t *testing.T) {
	r := Standard()
	rng := rand.New(rand.NewSource(23))
	const nx, ny, nz = 9, 2, 2
	for _, name := range r.Names() {
		f, err := r.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, order := range stencil.Orders() {
			st := stencil.MustGet(order)
			hw, err := f.HalfWidth(order)
			if err != nil {
				t.Fatal(err)
			}
			roi := grid.Box{Lo: grid.Point{X: -4, Y: 1, Z: -2}, Hi: grid.Point{X: -4 + nx, Y: 1 + ny, Z: -2 + nz}}
			for _, seed := range []struct {
				density float64
				palette []float32
			}{{0.002, specials}, {0.05, specials}, {0.5, specials}, {1, specials}, {1, specials[:2]}} {
				bls := make([]*field.Block, len(f.Raws))
				for i, rf := range f.Raws {
					bls[i] = field.NewBlock(roi.Expand(hw), rf.NComp)
					for j := range bls[i].Data {
						if rng.Float64() < seed.density {
							bls[i].Data[j] = seed.palette[rng.Intn(len(seed.palette))]
						} else {
							bls[i].Data[j] = float32(rng.NormFloat64())
						}
					}
				}
				norms := make([]float64, nx)
				vals := make([]float64, nx*f.OutComp)
				scratch := make([]float64, nx*f.RowScratchPerPoint)
				ref := make([]float64, f.OutComp)
				p := roi.Lo
				for p.Z = roi.Lo.Z; p.Z < roi.Hi.Z; p.Z++ {
					for p.Y = roi.Lo.Y; p.Y < roi.Hi.Y; p.Y++ {
						f.NormRow(st, bls, p, nx, 0.25, norms, vals, scratch)
						for i := 0; i < nx; i++ {
							q := p.Add(i, 0, 0)
							want := f.Norm(st, bls, q, 0.25, ref)
							if !sameOrBothNaN(norms[i], want) {
								t.Fatalf("%s order %d density %g: NormRow at %v = %x (%g), Norm = %x (%g)",
									name, order, seed.density, q, math.Float64bits(norms[i]), norms[i], math.Float64bits(want), want)
							}
							for c, w := range ref {
								if got := vals[i*f.OutComp+c]; !sameOrBothNaN(got, w) {
									t.Fatalf("%s order %d density %g: EvalRow at %v comp %d = %x (%g), Eval = %x (%g)",
										name, order, seed.density, q, c, math.Float64bits(got), got, math.Float64bits(w), w)
								}
							}
						}
					}
				}
			}
		}
	}
}

// The scan's zero-allocation-per-slab guarantee rests on NormRow itself
// allocating nothing: the fused kernels and the row reducers work in the
// caller's buffers only.
func TestNormRowDoesNotAllocate(t *testing.T) {
	const n = 32
	rng := rand.New(rand.NewSource(29))
	st := stencil.MustGet(4)
	for _, name := range []string{Vorticity, QCriterion} {
		f, err := Standard().Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		bl := field.NewBlock(grid.Box{Hi: grid.Point{X: n, Y: 1, Z: 1}}.Expand(st.HalfWidth), 3)
		fillRandom(rng, bl)
		bls := []*field.Block{bl}
		norms := make([]float64, n)
		vals := make([]float64, n*f.OutComp)
		scratch := make([]float64, n*f.RowScratchPerPoint)
		if allocs := testing.AllocsPerRun(100, func() {
			f.NormRow(st, bls, grid.Point{}, n, 0.01, norms, vals, scratch)
		}); allocs != 0 {
			t.Errorf("%s: NormRow over %d points allocates %v times per call, want 0", name, n, allocs)
		}
	}
}
