package derived

import (
	"math"
	"math/rand"
	"testing"

	"github.com/turbdb/turbdb/internal/field"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/stencil"
)

// fillRandom loads a block with float32-truncated gaussian values, the same
// distribution class as stored simulation data.
func fillRandom(rng *rand.Rand, bl *field.Block) {
	for i := range bl.Data {
		bl.Data[i] = float32(rng.NormFloat64())
	}
}

// slabsOf decodes blocks into float64 slabs over the same boxes, through
// the serialized form a scan decodes from.
func slabsOf(bls []*field.Block) []*field.Slab {
	sls := make([]*field.Slab, len(bls))
	for i, bl := range bls {
		sls[i] = &field.Slab{}
		sls[i].Reset(bl.Bounds, bl.NComp)
		sls[i].DecodeFrom(bl.Bytes(), bl.Bounds, bl.Bounds)
	}
	return sls
}

// Differential property: for every standard-catalog field and every FD
// order, the scan's path over float64 slabs (EvalRow/SlabNormRow, and Eval
// over Slabs) must reproduce the float32 reference (Eval/Norm over the
// blocks, and NormRow) bit for bit over randomized fields, box geometries
// and row lengths — including single-point rows and rows whose boxes sit at
// negative coordinates, as boundary-clipped ROIs do.
func TestRowPathMatchesPerPointBitwise(t *testing.T) {
	r := Standard()
	rng := rand.New(rand.NewSource(2015))
	for _, name := range r.Names() {
		f, err := r.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if f.EvalRow == nil {
			t.Errorf("standard field %q has no row kernel", name)
			continue
		}
		for _, order := range stencil.Orders() {
			st := stencil.MustGet(order)
			hw, err := f.HalfWidth(order)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 25; trial++ {
				nx := 1 + rng.Intn(11)
				ny := 1 + rng.Intn(3)
				nz := 1 + rng.Intn(3)
				lo := grid.Point{X: rng.Intn(13) - 6, Y: rng.Intn(13) - 6, Z: rng.Intn(13) - 6}
				roi := grid.Box{Lo: lo, Hi: lo.Add(nx, ny, nz)}
				dx := 0.05 + rng.Float64()
				bls := make([]*field.Block, len(f.Raws))
				for i, rf := range f.Raws {
					bls[i] = field.NewBlock(roi.Expand(hw), rf.NComp)
					fillRandom(rng, bls[i])
				}
				sls := slabsOf(bls)
				norms, refNorms := make([]float64, nx), make([]float64, nx)
				vals, refVals := make([]float64, nx*f.OutComp), make([]float64, nx*f.OutComp)
				scratch := make([]float64, nx*f.RowScratchPerPoint)
				ref, slab := make([]float64, f.OutComp), make([]float64, f.OutComp)
				var p grid.Point
				for p.Z = roi.Lo.Z; p.Z < roi.Hi.Z; p.Z++ {
					for p.Y = roi.Lo.Y; p.Y < roi.Hi.Y; p.Y++ {
						p.X = roi.Lo.X
						f.SlabNormRow(st, sls, p, nx, dx, norms, vals, scratch)
						f.NormRow(st, bls, p, nx, dx, refNorms, refVals, nil)
						for i := 0; i < nx; i++ {
							q := grid.Point{X: roi.Lo.X + i, Y: p.Y, Z: p.Z}
							want := f.Norm(st, bls, q, dx, ref)
							f.Eval(st, Slabs(sls...), q, dx, slab)
							for _, got := range []float64{norms[i], refNorms[i]} {
								if math.Float64bits(got) != math.Float64bits(want) {
									t.Fatalf("%s order %d: SlabNormRow or NormRow at %v = %x, Norm = %x",
										name, order, q, math.Float64bits(got), math.Float64bits(want))
								}
							}
							for c := 0; c < f.OutComp; c++ {
								for _, got := range []float64{vals[i*f.OutComp+c], refVals[i*f.OutComp+c], slab[c]} {
									if math.Float64bits(got) != math.Float64bits(ref[c]) {
										t.Fatalf("%s order %d: EvalRow, NormRow or Eval over slabs at %v comp %d = %g, Eval = %g",
											name, order, q, c, got, ref[c])
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// Fields registered without a row kernel must still evaluate through
// SlabNormRow (per-point Eval over the slabs), identically to Norm.
func TestNormRowFallbackWithoutRowKernel(t *testing.T) {
	r := NewRegistry()
	f := &Field{
		Name: "custom-sum", Raws: []RawInput{{Velocity, 3}}, OutComp: 1,
		Eval: func(_ stencil.Stencil, in Inputs, p grid.Point, _ float64, out []float64) {
			out[0] = in.At(0, p, 0) + in.At(0, p, 1) + in.At(0, p, 2)
		},
	}
	if err := r.Register(f); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	box := grid.Box{Lo: grid.Point{X: -2, Y: 0, Z: 1}, Hi: grid.Point{X: 6, Y: 3, Z: 4}}
	bl := field.NewBlock(box, 3)
	fillRandom(rng, bl)
	bls := []*field.Block{bl}
	sls := slabsOf(bls)
	st := stencil.MustGet(4)
	nx := 8
	norms := make([]float64, nx)
	vals := make([]float64, nx*f.OutComp)
	ref := make([]float64, f.OutComp)
	for z := box.Lo.Z; z < box.Hi.Z; z++ {
		for y := box.Lo.Y; y < box.Hi.Y; y++ {
			p := grid.Point{X: box.Lo.X, Y: y, Z: z}
			f.SlabNormRow(st, sls, p, nx, 1.0, norms, vals, nil)
			for i := 0; i < nx; i++ {
				want := f.Norm(st, bls, grid.Point{X: box.Lo.X + i, Y: y, Z: z}, 1.0, ref)
				if math.Float64bits(norms[i]) != math.Float64bits(want) {
					t.Fatalf("fallback SlabNormRow[%d] = %g, Norm = %g", i, norms[i], want)
				}
			}
		}
	}
}

func TestRegisterRejectsNegativeScratch(t *testing.T) {
	r := NewRegistry()
	f := &Field{
		Name: "bad", Raws: []RawInput{{Velocity, 3}}, OutComp: 1,
		Eval:               func(stencil.Stencil, Inputs, grid.Point, float64, []float64) {},
		RowScratchPerPoint: -1,
	}
	if err := r.Register(f); err == nil {
		t.Error("Register accepted negative RowScratchPerPoint")
	}
}
