package node

import (
	"context"
	"fmt"
	"math"
	"testing"

	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/field"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/synth"
)

// BenchmarkThresholdScan drives a full cacheless node-local threshold
// evaluation (gather + slab assembly + row-wise kernel scan) over one time-step
// and reports ns/point of the end-to-end compute path. The threshold is
// +Inf so no results accumulate: the number measures the engine, not the
// result pipeline. The synopsis is dropped before every iteration, or the
// second one would prune every atom and time nothing; the drop is a map
// delete, timed with the scan because stopping the timer costs more.
func BenchmarkThresholdScan(b *testing.B) {
	nodes, _ := buildCluster(b, 1, 32, synth.MHD, false, 1)
	n := nodes[0]
	for _, name := range []string{derived.Velocity, derived.Vorticity, derived.QCriterion} {
		b.Run(fmt.Sprintf("%s/o4", name), func(b *testing.B) {
			points := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := n.DropCacheEntry(context.Background(), name, 4, 0); err != nil {
					b.Fatal(err)
				}
				res, err := n.GetThreshold(context.Background(), nil, query.Threshold{
					Dataset: "mhd", Field: name, Timestep: 0,
					Threshold: math.Inf(1), FDOrder: 4, Limit: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				points += res.Breakdown.PointsExamined
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(points), "ns/point")
		})
	}
}

// BenchmarkAssembleSlab isolates halo assembly (decoding the blobs under a
// slab's halo-extended box straight into its pooled block), the fixed cost
// of every slab ahead of its row kernels; ns/point is per useful point.
func BenchmarkAssembleSlab(b *testing.B) {
	nodes, gen := buildCluster(b, 1, 32, synth.Isotropic, false, 1)
	n := nodes[0]
	g := gen.Grid()
	f, err := derived.Standard().Lookup(derived.Vorticity)
	if err != nil {
		b.Fatal(err)
	}
	codes, err := n.scanAtomsCovering(g.Domain(), nil)
	if err != nil {
		b.Fatal(err)
	}
	const hw = 2
	// The whole halo box, so the benchmark times the same assembly for any
	// field.
	data := n.gatherReads(context.Background(), nil, &derived.Field{Raws: f.Raws}, 0, codes, g.Domain(), hw, newBufferPool())
	if data.err != nil {
		b.Fatal(data.err)
	}
	s := slabScan{g: g, f: f, hw: hw, blobs: data.blobs, slabs: []*field.Slab{n.getSlab()}}
	side, _ := slabAt(codes)
	roi := slabROI(g, codes[0], side, g.Domain())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.assemble(roi) {
			b.Fatal("atom missing")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*roi.NumPoints()), "ns/point")
}
