package cluster

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/synth"
)

// A cached cluster answers every PDF twice — a miss, then a hit on every
// node — over the whole domain, an atom-aligned box and an unaligned one,
// at k = 1 and k = 2, and each answer's counts equal those of a twin that
// caches nothing, bin for bin.
func TestPDFCacheDifferential(t *testing.T) {
	const gridN = 32
	ctx := context.Background()
	boxes := []grid.Box{
		{},
		{Lo: grid.Point{X: 8, Y: 0, Z: 8}, Hi: grid.Point{X: 24, Y: 16, Z: 32}},
		{Lo: grid.Point{X: 3, Y: 5, Z: 1}, Hi: grid.Point{X: 29, Y: 18, Z: 30}},
	}
	for _, k := range []int{1, 2} {
		c := buildTest(t, Config{Nodes: 3, Replication: k, WithCache: true}, synth.MHD, gridN)
		twin := buildTest(t, Config{Nodes: 3, Replication: k}, synth.MHD, gridN)
		for bi, box := range boxes {
			for _, q := range []query.PDF{
				{Dataset: "mhd", Field: derived.Current, Box: box, Bins: 16, Width: 0.25},
				{Dataset: "mhd", Field: derived.Current, Box: box, Bins: 5, Min: 0.5, Width: 1},
				{Dataset: "mhd", Field: derived.Vorticity, Timestep: 1, Box: box, Bins: 16, Width: 0.25},
			} {
				name := fmt.Sprintf("k=%d box %d %s/%d bins", k, bi, q.Field, q.Bins)
				want, _, err := twin.Mediator.PDF(ctx, nil, q)
				if err != nil {
					t.Fatal(err)
				}
				for i, hit := range []bool{false, true} {
					got, stats, err := c.Mediator.PDF(ctx, nil, q)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want) {
						t.Errorf("%s, call %d: counts %v, uncached twin %v", name, i, got, want)
					}
					if stats.FromCache() != hit || stats.NodeAnswers == 0 {
						t.Errorf("%s, call %d: FromCache %v (%d of %d node answers), want %v",
							name, i, stats.FromCache(), stats.CacheHits, stats.NodeAnswers, hit)
					}
					if read := stats.NodeCritical.AtomsRead; (read == 0) != hit {
						t.Errorf("%s, call %d: a node read %d atoms", name, i, read)
					}
				}
			}
		}
	}
}
