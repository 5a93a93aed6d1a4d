package turbdb

import (
	"fmt"

	"github.com/turbdb/turbdb/internal/fof"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/landmark"
)

// Landmark is one recorded region of interest: an intense event reduced to
// its statistics (the landmark database the paper's conclusion proposes).
type Landmark struct {
	ID        uint64
	Field     string
	Threshold float64
	// Peak is the most intense point, with the step and value.
	Peak      Point
	PeakStep  int
	Centroid  [3]float64
	BBox      Box
	Size      int
	FirstStep int
	LastStep  int
}

// Lifespan returns the number of time-steps the event is alive.
func (l Landmark) Lifespan() int { return l.LastStep - l.FirstStep + 1 }

// LandmarkOptions configures BuildLandmarks.
type LandmarkOptions struct {
	// Quantile sets the threshold at this quantile of the field's norm
	// (default 0.998 — the extreme tail).
	Quantile float64
	// LinkLength is the FoF spatial link in grid cells (default 2).
	LinkLength float64
	// TimeLink is the FoF temporal link in steps (default 1).
	TimeLink int
	// MinSize drops clusters smaller than this (default 1).
	MinSize int
}

// LandmarkFilter selects landmarks in LandmarkDB.Find; zero values mean
// "any", except Step where -1 means any.
type LandmarkFilter struct {
	MinPeak float64
	MinSize int
	Region  Box
	Step    int
}

// LandmarkDB holds recorded landmarks for one database, queryable without
// touching the raw data again.
type LandmarkDB struct {
	inner   *landmark.DB
	dataset string
}

// BuildLandmarks thresholds the field in every stored time-step, clusters
// the results in 4-D, and records one landmark per event. The underlying
// threshold queries go through the cache like any other query, so rebuilt
// landmark databases reuse prior scans.
func (db *DB) BuildLandmarks(fieldName string, o LandmarkOptions) (*LandmarkDB, error) {
	if o.Quantile == 0 {
		o.Quantile = 0.998
	}
	if o.LinkLength == 0 {
		o.LinkLength = 2
	}
	if o.TimeLink == 0 {
		o.TimeLink = 1
	}
	if o.MinSize == 0 {
		o.MinSize = 1
	}
	threshold, err := db.NormQuantile(fieldName, 0, o.Quantile)
	if err != nil {
		return nil, err
	}
	var pts []fof.Point
	for step := 0; step < db.Steps(); step++ {
		stepPts, _, err := db.Threshold(ThresholdQuery{
			Field: fieldName, Timestep: step, Threshold: threshold,
		})
		if err != nil {
			return nil, fmt.Errorf("turbdb: landmarks step %d: %w", step, err)
		}
		for _, p := range stepPts {
			pts = append(pts, fof.Point{X: p.X, Y: p.Y, Z: p.Z, T: step, Value: float32(p.Value)})
		}
	}
	ldb := &LandmarkDB{inner: landmark.New(), dataset: db.Dataset()}
	_, err = ldb.inner.BuildFromPoints(db.Dataset(), fieldName, threshold, pts, fof.Params{
		LinkLength: o.LinkLength, TimeLink: o.TimeLink, Periodic: db.GridN(),
	}, o.MinSize)
	if err != nil {
		return nil, err
	}
	return ldb, nil
}

// Count returns the number of recorded landmarks.
func (l *LandmarkDB) Count() int { return l.inner.Count() }

// Find returns landmarks matching the filter, most intense first.
func (l *LandmarkDB) Find(f LandmarkFilter) ([]Landmark, error) {
	inner := l.inner.Query(landmark.Filter{
		Dataset: l.dataset,
		MinPeak: f.MinPeak,
		MinSize: f.MinSize,
		Region:  f.Region.internal(),
		Step:    f.Step,
	})
	out := make([]Landmark, len(inner))
	for i, m := range inner {
		out[i] = Landmark{
			ID: m.ID, Field: m.Field, Threshold: m.Threshold,
			Peak:     Point{X: m.Peak.X, Y: m.Peak.Y, Z: m.Peak.Z, Value: m.PeakValue},
			PeakStep: m.PeakStep,
			Centroid: m.Centroid,
			BBox:     boxFromInternal(m.BBox),
			Size:     m.Size, FirstStep: m.FirstStep, LastStep: m.LastStep,
		}
	}
	return out, nil
}

// boxFromInternal converts the internal box type.
func boxFromInternal(b grid.Box) Box {
	return Box{
		Lo: [3]int{b.Lo.X, b.Lo.Y, b.Lo.Z},
		Hi: [3]int{b.Hi.X, b.Hi.Y, b.Hi.Z},
	}
}
