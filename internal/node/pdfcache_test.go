package node

import (
	"context"
	"slices"
	"testing"

	"github.com/turbdb/turbdb/internal/cache"
	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/field"
	"github.com/turbdb/turbdb/internal/query"
)

// A histogram larger than the cache's aggregate budget is served, not
// stored: a 10⁶-bin PDF — the largest a query may ask — scans every time,
// answers what an uncached node answers, and leaves the cache untouched,
// while a small PDF on the same node is stored and then hit.
func TestPDFOverBudgetServedUncached(t *testing.T) {
	const gridN = 16
	raws := map[string]*field.Block{derived.Velocity: gusty(gridN, 3, 7)}
	n := clusterOver(t, gridN, raws, 1, 1)[0]
	twin := clusterOver(t, gridN, raws, 1, 1)[0]
	c, err := cache.New(cache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	n.cache = c
	ctx := context.Background()
	for _, tc := range []struct {
		bins   int
		stored bool
	}{{query.DefaultLimit, false}, {8, true}} {
		q := query.PDF{Dataset: "noise", Field: derived.Vorticity, Bins: tc.bins, Width: 1.0 / 64}
		want, err := twin.GetPDF(ctx, nil, q)
		if err != nil {
			t.Fatal(err)
		}
		before := c.Stats()
		for i := range 2 {
			got, err := n.GetPDF(ctx, nil, q)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Counts, want.Counts) {
				t.Fatalf("%d bins, call %d: counts differ from an uncached node's", tc.bins, i)
			}
			if hit := tc.stored && i == 1; got.FromCache != hit {
				t.Errorf("%d bins, call %d: FromCache %v, want %v", tc.bins, i, got.FromCache, hit)
			}
			if examined := got.Breakdown.PointsExamined; (examined == 0) != got.FromCache {
				t.Errorf("%d bins, call %d: %d points examined, FromCache %v", tc.bins, i, examined, got.FromCache)
			}
		}
		if stores := c.Stats().Stores - before.Stores; (stores == 1) != tc.stored || stores > 1 {
			t.Errorf("%d bins: %d stores, stored %v", tc.bins, stores, tc.stored)
		}
	}
}
