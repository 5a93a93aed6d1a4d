package derived

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/turbdb/turbdb/internal/field"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/stencil"
)

// benchSide is the evaluation cube side per op (benchSide³ kernel points).
const benchSide = 16

// BenchmarkNorm measures ns/point of every standard-catalog field at every
// FD order, on both evaluation paths: "perpoint" is the float32 reference
// (one Eval closure call per grid point), "row" is the bulk kernel path over
// float64 slabs that scanShard uses. scripts/bench.sh records the pairs in BENCH_*.json;
// the row path is the one whose regressions matter.
func BenchmarkNorm(b *testing.B) {
	r := Standard()
	rng := rand.New(rand.NewSource(99))
	for _, name := range r.Names() {
		f, err := r.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, order := range stencil.Orders() {
			if f.IsRaw() && order != 4 {
				continue // raw copy-through has no stencil: one order suffices
			}
			st := stencil.MustGet(order)
			hw, err := f.HalfWidth(order)
			if err != nil {
				b.Fatal(err)
			}
			box := grid.Box{Hi: grid.Point{X: benchSide, Y: benchSide, Z: benchSide}}
			bls := make([]*field.Block, len(f.Raws))
			for i, rf := range f.Raws {
				bls[i] = field.NewBlock(box.Expand(hw), rf.NComp)
				fillRandom(rng, bls[i])
			}
			sls := slabsOf(bls)
			const dx = 0.01
			points := float64(benchSide * benchSide * benchSide)

			b.Run(fmt.Sprintf("%s/o%d/perpoint", name, order), func(b *testing.B) {
				scratch := make([]float64, f.OutComp)
				var sink float64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var p grid.Point
					for p.Z = 0; p.Z < benchSide; p.Z++ {
						for p.Y = 0; p.Y < benchSide; p.Y++ {
							for p.X = 0; p.X < benchSide; p.X++ {
								sink += f.Norm(st, bls, p, dx, scratch)
							}
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*points), "ns/point")
				_ = sink
			})

			b.Run(fmt.Sprintf("%s/o%d/row", name, order), func(b *testing.B) {
				norms := make([]float64, benchSide)
				vals := make([]float64, benchSide*f.OutComp)
				scratch := make([]float64, benchSide*f.RowScratchPerPoint)
				var sink float64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var p grid.Point
					for p.Z = 0; p.Z < benchSide; p.Z++ {
						for p.Y = 0; p.Y < benchSide; p.Y++ {
							p.X = 0
							f.SlabNormRow(st, sls, p, benchSide, dx, norms, vals, scratch)
							sink += norms[0]
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*points), "ns/point")
				_ = sink
			})
		}
	}
}
