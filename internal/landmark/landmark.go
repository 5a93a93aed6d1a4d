// Package landmark implements the landmark database the paper's conclusion
// proposes: "the introduction of an application-aware cache for query
// results lays the groundwork for the creation of a landmark database. Such
// a database can store the locations of the highest vorticity regions in
// the dataset or more broadly regions of interest and their associated
// statistics."
//
// A landmark is one intense event: a connected cluster of thresholded
// points (from friends-of-friends over threshold-query results) reduced to
// its statistics — peak location and value, centroid, bounding box, size
// and time span. Landmarks are kept in one list under one mutex, so
// building and querying can proceed concurrently, and they can be queried
// by intensity, region and time without touching the raw data again.
package landmark

import (
	"sort"
	"sync"

	"github.com/turbdb/turbdb/internal/fof"
	"github.com/turbdb/turbdb/internal/grid"
)

// Landmark is one recorded region of interest and its statistics.
type Landmark struct {
	// ID is assigned by the database on insert.
	ID uint64
	// Dataset and Field identify what was thresholded.
	Dataset string
	Field   string
	// Threshold is the norm threshold that defined the region.
	Threshold float64
	// Peak is the most intense point of the region.
	Peak      grid.Point
	PeakStep  int
	PeakValue float64
	// Centroid is the mean position of the member points (in grid units,
	// not wrapped).
	Centroid [3]float64
	// BBox is the axis-aligned bounding box of the member points.
	BBox grid.Box
	// Size is the number of member points across all steps.
	Size int
	// FirstStep and LastStep span the event's lifetime.
	FirstStep, LastStep int
}

// Lifespan returns the number of time-steps the event is alive.
func (l Landmark) Lifespan() int { return l.LastStep - l.FirstStep + 1 }

// DB is a landmark database. Safe for concurrent use.
type DB struct {
	mu        sync.Mutex
	landmarks []Landmark // guarded by mu
}

// New creates an empty landmark database.
func New() *DB { return &DB{} }

// FromCluster reduces one FoF cluster to its landmark statistics.
func FromCluster(dataset, fieldName string, threshold float64, c fof.Cluster) Landmark {
	l := Landmark{
		Dataset: dataset, Field: fieldName, Threshold: threshold,
		Peak:      grid.Point{X: c.Peak.X, Y: c.Peak.Y, Z: c.Peak.Z},
		PeakStep:  c.Peak.T,
		PeakValue: float64(c.Peak.Value),
		Size:      len(c.Points),
		FirstStep: c.MinT, LastStep: c.MaxT,
	}
	if len(c.Points) == 0 {
		return l
	}
	l.BBox = grid.Box{
		Lo: grid.Point{X: c.Points[0].X, Y: c.Points[0].Y, Z: c.Points[0].Z},
		Hi: grid.Point{X: c.Points[0].X + 1, Y: c.Points[0].Y + 1, Z: c.Points[0].Z + 1},
	}
	var sx, sy, sz float64
	for _, p := range c.Points {
		sx += float64(p.X)
		sy += float64(p.Y)
		sz += float64(p.Z)
		l.BBox = union(l.BBox, p)
	}
	n := float64(len(c.Points))
	l.Centroid = [3]float64{sx / n, sy / n, sz / n}
	return l
}

// union grows a box to include a point.
func union(b grid.Box, p fof.Point) grid.Box {
	if p.X < b.Lo.X {
		b.Lo.X = p.X
	}
	if p.Y < b.Lo.Y {
		b.Lo.Y = p.Y
	}
	if p.Z < b.Lo.Z {
		b.Lo.Z = p.Z
	}
	if p.X+1 > b.Hi.X {
		b.Hi.X = p.X + 1
	}
	if p.Y+1 > b.Hi.Y {
		b.Hi.Y = p.Y + 1
	}
	if p.Z+1 > b.Hi.Z {
		b.Hi.Z = p.Z + 1
	}
	return b
}

// Insert records landmarks atomically and returns them with IDs assigned,
// from 1 in insertion order.
func (d *DB) Insert(ls []Landmark) []Landmark {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Landmark, len(ls))
	for i, l := range ls {
		l.ID = uint64(len(d.landmarks) + 1)
		d.landmarks = append(d.landmarks, l)
		out[i] = l
	}
	return out
}

// Filter selects landmarks in queries; zero values mean "any".
type Filter struct {
	Dataset string
	Field   string
	// MinPeak keeps landmarks whose peak value is ≥ MinPeak.
	MinPeak float64
	// MinSize keeps landmarks with at least MinSize member points.
	MinSize int
	// Region keeps landmarks whose bounding box intersects it (zero = any).
	Region grid.Box
	// Step keeps landmarks alive at this time-step (-1 = any).
	Step int
}

// matches applies the filter.
func (f Filter) matches(l Landmark) bool {
	if f.Dataset != "" && l.Dataset != f.Dataset {
		return false
	}
	if f.Field != "" && l.Field != f.Field {
		return false
	}
	if l.PeakValue < f.MinPeak {
		return false
	}
	if l.Size < f.MinSize {
		return false
	}
	if f.Region != (grid.Box{}) && l.BBox.Intersect(f.Region).Empty() {
		return false
	}
	if f.Step >= 0 && (l.FirstStep > f.Step || l.LastStep < f.Step) {
		return false
	}
	return true
}

// Query returns matching landmarks sorted by descending peak value. Pass
// Filter{Step: -1} for no step constraint.
func (d *DB) Query(f Filter) []Landmark {
	d.mu.Lock()
	var out []Landmark
	for _, l := range d.landmarks {
		if f.matches(l) {
			out = append(out, l)
		}
	}
	d.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].PeakValue != out[j].PeakValue { // exact tie-break keeps the order total and deterministic
			return out[i].PeakValue > out[j].PeakValue
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Count returns the number of stored landmarks.
func (d *DB) Count() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.landmarks)
}

// BuildFromPoints clusters thresholded points (tagged with their time-step)
// and records one landmark per cluster of at least minSize points. Returns
// the inserted landmarks, most intense first.
func (d *DB) BuildFromPoints(dataset, fieldName string, threshold float64, pts []fof.Point, params fof.Params, minSize int) ([]Landmark, error) {
	clusters, err := fof.FindClusters(pts, params)
	if err != nil {
		return nil, err
	}
	var ls []Landmark
	for _, c := range clusters {
		if len(c.Points) < minSize {
			continue
		}
		ls = append(ls, FromCluster(dataset, fieldName, threshold, c))
	}
	return d.Insert(ls), nil
}
