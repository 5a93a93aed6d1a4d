package fieldexpr

import (
	"math"
	"math/rand"
	"testing"

	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/field"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/stencil"
)

// Compile declares axis reach exactly at operator depth ≤ 1, and the
// declaration holds: over blocks whose edge and corner halo regions are
// NaN, a depth-1 expression evaluates bit for bit as over the clean
// blocks, while curl(curl(velocity)) — a second derivative across two
// axes — reads those regions, which is why depth 2 must keep the box.
func TestAxisReachStopsAtDepthOne(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	st := stencil.MustGet(4)
	for _, c := range []struct {
		src   string
		depth int
	}{
		{"velocity", 0},
		{"norm(velocity) * pressure", 0},
		{"curl(velocity)", 1},
		{"grad(velocity)", 1},
		{"dot(velocity, curl(magnetic))", 1},
		{"qcrit(grad(velocity)) + abs(div(magnetic))", 1},
		{"div(grad(pressure))", 2},
		{"curl(curl(velocity))", 2},
		{"norm(grad(norm(curl(velocity))))", 2},
		{"curl(curl(curl(velocity)))", 3},
	} {
		f, err := Compile("t", c.src, testRaws)
		if err != nil {
			t.Fatalf("Compile(%q): %v", c.src, err)
		}
		if f.AxisReach != (c.depth <= 1) {
			t.Errorf("%q (depth %d): AxisReach %v", c.src, c.depth, f.AxisReach)
		}
		hw, err := f.HalfWidth(st.Order)
		if err != nil {
			t.Fatal(err)
		}
		roi := grid.Box{Lo: grid.Point{X: -1, Y: 2, Z: 0}, Hi: grid.Point{X: 4, Y: 5, Z: 2}}
		clean := make([]*field.Block, len(f.Raws))
		dirty := make([]*field.Block, len(f.Raws))
		for i, rf := range f.Raws {
			clean[i] = field.NewBlock(roi.Expand(hw), rf.NComp)
			dirty[i] = field.NewBlock(roi.Expand(hw), rf.NComp)
			for j := range clean[i].Data {
				clean[i].Data[j] = float32(rng.NormFloat64())
			}
			copy(dirty[i].Data, clean[i].Data)
			poisonOffAxes(dirty[i], roi)
		}
		differs := false
		want, got := make([]float64, f.OutComp), make([]float64, f.OutComp)
		var p grid.Point
		for p.Z = roi.Lo.Z; p.Z < roi.Hi.Z; p.Z++ {
			for p.Y = roi.Lo.Y; p.Y < roi.Hi.Y; p.Y++ {
				for p.X = roi.Lo.X; p.X < roi.Hi.X; p.X++ {
					f.Eval(st, derived.Blocks(clean...), p, 0.3, want)
					f.Eval(st, derived.Blocks(dirty...), p, 0.3, got)
					for k := range want {
						differs = differs || math.Float64bits(got[k]) != math.Float64bits(want[k])
					}
				}
			}
		}
		if f.AxisReach && differs {
			t.Errorf("%q declares axis reach and reads off the axes", c.src)
		}
		if c.src == "curl(curl(velocity))" && !differs {
			t.Errorf("%q reads nothing off the axes: the control shows nothing", c.src)
		}
	}
}

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
