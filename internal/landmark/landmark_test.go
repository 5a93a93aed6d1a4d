package landmark

import (
	"math"
	"sync"
	"testing"

	"github.com/turbdb/turbdb/internal/fof"
	"github.com/turbdb/turbdb/internal/grid"
)

// twoEvents builds points for two separated events, one spanning two steps.
func twoEvents() []fof.Point {
	var pts []fof.Point
	// event A: a 2×2 patch at (4..5, 4, 4), steps 0-1, peak 9 at step 1
	for t := 0; t < 2; t++ {
		pts = append(pts,
			fof.Point{X: 4, Y: 4, Z: 4, T: t, Value: 5},
			fof.Point{X: 5, Y: 4, Z: 4, T: t, Value: float32(5 + 4*t)},
		)
	}
	// event B: single point far away, step 0, peak 7
	pts = append(pts, fof.Point{X: 30, Y: 30, Z: 30, T: 0, Value: 7})
	return pts
}

func buildTwo(t *testing.T) (*DB, []Landmark) {
	t.Helper()
	d := New()
	ls, err := d.BuildFromPoints("iso", "vorticity", 5, twoEvents(),
		fof.Params{LinkLength: 1.5, TimeLink: 1, Periodic: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return d, ls
}

func TestBuildFromPoints(t *testing.T) {
	d, ls := buildTwo(t)
	if len(ls) != 2 {
		t.Fatalf("landmarks = %d, want 2", len(ls))
	}
	if d.Count() != 2 {
		t.Errorf("Count = %d", d.Count())
	}
	// most intense first
	a := ls[0]
	if a.PeakValue != 9 || a.Peak != (grid.Point{X: 5, Y: 4, Z: 4}) || a.PeakStep != 1 {
		t.Errorf("event A peak: %+v", a)
	}
	if a.Size != 4 || a.FirstStep != 0 || a.LastStep != 1 || a.Lifespan() != 2 {
		t.Errorf("event A stats: %+v", a)
	}
	wantCentroid := [3]float64{4.5, 4, 4}
	for i := range wantCentroid {
		if math.Abs(a.Centroid[i]-wantCentroid[i]) > 1e-12 {
			t.Errorf("centroid = %v", a.Centroid)
		}
	}
	wantBox := grid.Box{Lo: grid.Point{X: 4, Y: 4, Z: 4}, Hi: grid.Point{X: 6, Y: 5, Z: 5}}
	if a.BBox != wantBox {
		t.Errorf("bbox = %v, want %v", a.BBox, wantBox)
	}
	if ls[1].PeakValue != 7 || ls[1].Size != 1 {
		t.Errorf("event B: %+v", ls[1])
	}
	if ls[0].ID == ls[1].ID || ls[0].ID == 0 {
		t.Errorf("IDs not assigned: %d %d", ls[0].ID, ls[1].ID)
	}
}

func TestMinSizeFiltersSmallClusters(t *testing.T) {
	d := New()
	ls, err := d.BuildFromPoints("iso", "vorticity", 5, twoEvents(),
		fof.Params{LinkLength: 1.5, TimeLink: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range ls {
		if l.Size < 2 {
			t.Errorf("undersized landmark recorded: %+v", l)
		}
	}
}

func TestQueryFilters(t *testing.T) {
	d, _ := buildTwo(t)
	any := Filter{Step: -1}

	all := d.Query(any)
	if len(all) != 2 {
		t.Fatalf("query all: %d", len(all))
	}
	// by intensity
	strong := d.Query(Filter{MinPeak: 8, Step: -1})
	if len(strong) != 1 || strong[0].PeakValue != 9 {
		t.Errorf("MinPeak filter: %+v", strong)
	}
	// by size
	big := d.Query(Filter{MinSize: 2, Step: -1})
	if len(big) != 1 || big[0].Size != 4 {
		t.Errorf("MinSize filter: %+v", big)
	}
	// by region
	near := d.Query(Filter{Region: grid.Box{
		Lo: grid.Point{X: 0, Y: 0, Z: 0}, Hi: grid.Point{X: 10, Y: 10, Z: 10},
	}, Step: -1})
	if len(near) != 1 || near[0].PeakValue != 9 {
		t.Errorf("Region filter: %+v", near)
	}
	// by step: only event A is alive at step 1
	atStep1 := d.Query(Filter{Step: 1})
	if len(atStep1) != 1 || atStep1[0].PeakValue != 9 {
		t.Errorf("Step filter: %+v", atStep1)
	}
	// by dataset/field isolation
	none := d.Query(Filter{Dataset: "other", Step: -1})
	if len(none) != 0 {
		t.Errorf("dataset filter leaked: %+v", none)
	}
	none = d.Query(Filter{Field: "other", Step: -1})
	if len(none) != 0 {
		t.Errorf("field filter leaked: %+v", none)
	}
}

func TestEmptyDatabase(t *testing.T) {
	d := New()
	if ls := d.Query(Filter{Step: -1}); len(ls) != 0 {
		t.Errorf("empty query: %v", ls)
	}
	if d.Count() != 0 {
		t.Errorf("Count = %d", d.Count())
	}
	// building from no points is fine
	out, err := d.BuildFromPoints("d", "f", 1, nil, fof.Params{LinkLength: 1}, 1)
	if err != nil || len(out) != 0 {
		t.Errorf("empty build: %v %v", out, err)
	}
}

// TestConcurrentInsertAndQuery inserts batches from several goroutines while
// others query: a query never sees part of a batch, and every landmark gets
// a distinct ID from 1 to the total.
func TestConcurrentInsertAndQuery(t *testing.T) {
	d := New()
	const writers, batches, batch = 4, 25, 3
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				d.Insert(make([]Landmark, batch))
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				if ls := d.Query(Filter{Step: -1}); len(ls)%batch != 0 {
					t.Errorf("query saw %d landmarks: a batch landed in part", len(ls))
				}
			}
		}()
	}
	wg.Wait()
	all := d.Query(Filter{Step: -1})
	if len(all) != writers*batches*batch || d.Count() != len(all) {
		t.Fatalf("query %d landmarks, Count %d; want %d", len(all), d.Count(), writers*batches*batch)
	}
	seen := make(map[uint64]bool)
	for _, l := range all {
		if l.ID < 1 || l.ID > uint64(len(all)) || seen[l.ID] {
			t.Fatalf("ID %d duplicated or outside 1..%d", l.ID, len(all))
		}
		seen[l.ID] = true
	}
}

func TestFromClusterEmpty(t *testing.T) {
	l := FromCluster("d", "f", 1, fof.Cluster{})
	if l.Size != 0 {
		t.Errorf("empty cluster landmark: %+v", l)
	}
}
