package derived

import (
	"math"
	"math/rand"
	"testing"

	"github.com/turbdb/turbdb/internal/field"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/stencil"
)

// poisonOffAxes sets NaN at every point of bl outside roi along more than
// one axis: the edge and corner regions of roi's halo box.
func poisonOffAxes(bl *field.Block, roi grid.Box) {
	b := bl.Bounds
	var q grid.Point
	for q.Z = b.Lo.Z; q.Z < b.Hi.Z; q.Z++ {
		for q.Y = b.Lo.Y; q.Y < b.Hi.Y; q.Y++ {
			for q.X = b.Lo.X; q.X < b.Hi.X; q.X++ {
				out := 0
				if q.X < roi.Lo.X || q.X >= roi.Hi.X {
					out++
				}
				if q.Y < roi.Lo.Y || q.Y >= roi.Hi.Y {
					out++
				}
				if q.Z < roi.Lo.Z || q.Z >= roi.Hi.Z {
					out++
				}
				for c := 0; out > 1 && c < bl.NComp; c++ {
					bl.Set(q, c, math.NaN())
				}
			}
		}
	}
}

// A field that declares AxisReach reads nothing off the axes: for every
// such field of the standard catalog — every field with a stencil — and
// every FD order, Eval and EvalRow over blocks (and the slabs decoded from
// them) whose edge and corner halo regions are NaN give, bit for bit, what
// Eval gives over the clean blocks. A read of a diagonal neighbour would see
// NaN (the control checks it): in a slab scan those regions hold whatever
// the pooled slab held before.
func TestAxisReachReadsNoEdgeOrCorner(t *testing.T) {
	r := Standard()
	rng := rand.New(rand.NewSource(34))
	for _, name := range r.Names() {
		f, err := r.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if f.AxisReach != f.NeedsStencil {
			t.Errorf("%s: AxisReach %v, NeedsStencil %v: every stencil field of the catalog reads along the axes", name, f.AxisReach, f.NeedsStencil)
		}
		if !f.AxisReach {
			continue
		}
		for _, order := range stencil.Orders() {
			st := stencil.MustGet(order)
			hw, err := f.HalfWidth(order)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 10; trial++ {
				nx, ny, nz := 1+rng.Intn(9), 1+rng.Intn(4), 1+rng.Intn(4)
				lo := grid.Point{X: rng.Intn(13) - 6, Y: rng.Intn(13) - 6, Z: rng.Intn(13) - 6}
				roi := grid.Box{Lo: lo, Hi: lo.Add(nx, ny, nz)}
				dx := 0.05 + rng.Float64()
				clean := make([]*field.Block, len(f.Raws))
				dirty := make([]*field.Block, len(f.Raws))
				for i, rf := range f.Raws {
					clean[i] = field.NewBlock(roi.Expand(hw), rf.NComp)
					dirty[i] = field.NewBlock(roi.Expand(hw), rf.NComp)
					fillRandom(rng, clean[i])
					copy(dirty[i].Data, clean[i].Data)
					poisonOffAxes(dirty[i], roi)
				}
				dirtySlabs := slabsOf(dirty)
				oc := f.OutComp
				want, got := make([]float64, oc), make([]float64, oc)
				vals := make([]float64, nx*oc)
				scratch := make([]float64, nx*f.RowScratchPerPoint)
				p := roi.Lo
				for p.Z = roi.Lo.Z; p.Z < roi.Hi.Z; p.Z++ {
					for p.Y = roi.Lo.Y; p.Y < roi.Hi.Y; p.Y++ {
						f.EvalRow(st, dirtySlabs, p, nx, dx, vals, scratch)
						for i := 0; i < nx; i++ {
							q := p.Add(i, 0, 0)
							f.Eval(st, Blocks(clean...), q, dx, want)
							f.Eval(st, Blocks(dirty...), q, dx, got)
							for c := range want {
								w := math.Float64bits(want[c])
								if g := math.Float64bits(got[c]); g != w {
									t.Fatalf("%s order %d at %v comp %d: Eval reads off the axes: %g, clean %g", name, order, q, c, got[c], want[c])
								}
								if g := math.Float64bits(vals[i*oc+c]); g != w {
									t.Fatalf("%s order %d at %v comp %d: EvalRow reads off the axes: %g, clean %g", name, order, q, c, vals[i*oc+c], want[c])
								}
							}
						}
					}
				}
				if diagonal := roi.Lo.Add(-1, -1, 0); !math.IsNaN(dirty[0].At(diagonal, 0)) {
					t.Fatalf("control: %v, diagonal to %v, is not NaN", diagonal, roi.Lo)
				}
			}
		}
	}
}
