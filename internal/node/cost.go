package node

import (
	"math"
	"time"

	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/field"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/stencil"
)

// nowNanos is a monotonic wall-clock source for real mode.
func nowNanos() int64 { return time.Now().UnixNano() }

// CostModel maps field names to per-point compute durations, used to charge
// the simulation's CPU resource. The model is *calibrated*: durations come
// from timing the real evaluators on this host (see Calibrate), so the
// compute/I/O balance in simulated experiments is grounded in measurement,
// not invented. The paper's observation that the Q-criterion costs more
// than the vorticity (all 9 gradient components vs 6) emerges from the
// calibration automatically.
type CostModel struct {
	// PerPoint is the derived-field kernel evaluation cost per grid point,
	// keyed by field name.
	PerPoint map[string]time.Duration
	// Default is used for unknown fields.
	Default time.Duration
}

// Cost returns the per-point compute duration for a field.
func (m CostModel) Cost(fieldName string) time.Duration {
	if d, ok := m.PerPoint[fieldName]; ok {
		return d
	}
	return m.Default
}

// calibrationPoints is how many kernel evaluations one timing of a field
// covers; Calibrate keeps the fastest of calibrationRounds timings, so one
// preempted loop cannot invert the fields' cost order.
const (
	calibrationPoints = 20000
	calibrationRounds = 5
)

// Calibrate measures the real per-point evaluation cost of every field in
// the registry on this host and returns the resulting cost model. order is
// the finite-difference order the experiments will use.
func Calibrate(reg *derived.Registry, order int) (CostModel, error) {
	st, err := stencil.Get(order)
	if err != nil {
		return CostModel{}, err
	}
	m := CostModel{PerPoint: make(map[string]time.Duration), Default: 50 * time.Nanosecond}
	for _, name := range reg.Names() {
		f, err := reg.Lookup(name)
		if err != nil {
			return CostModel{}, err
		}
		m.PerPoint[name] = timeEval(f, st)
	}
	return m, nil
}

// timeEval measures one field's per-point kernel cost. It times the same
// SlabNormRow call over float64 slabs that scanShard executes, so simulated
// compute charges track the kernels a scan runs, not the float32 reference.
func timeEval(f *derived.Field, st stencil.Stencil) time.Duration {
	h := st.HalfWidth
	side := 16
	b := grid.Box{
		Lo: grid.Point{X: -h, Y: -h, Z: -h},
		Hi: grid.Point{X: side + h, Y: side + h, Z: side + h},
	}
	sls := make([]*field.Slab, len(f.Raws))
	for i, rf := range f.Raws {
		bl := field.NewBlock(b, rf.NComp)
		bl.Fill(func(p grid.Point, vals []float64) {
			for c := range vals {
				vals[c] = math.Sin(float64(p.X+2*p.Y+3*p.Z+c+i) * 0.1)
			}
		})
		sls[i] = &field.Slab{}
		sls[i].Reset(b, rf.NComp)
		sls[i].DecodeFrom(bl.Bytes(), b, b)
	}
	norms := make([]float64, side)
	vals := make([]float64, side*f.OutComp)
	var scratch []float64
	if f.RowScratchPerPoint > 0 {
		scratch = make([]float64, side*f.RowScratchPerPoint)
	}
	var sink float64
	scanRow := func(y, z int) {
		f.SlabNormRow(st, sls, grid.Point{Y: y, Z: z}, side, 0.1, norms, vals, scratch)
		sink += norms[0]
	}
	// warm up
	for i := 0; i < 1000/side+1; i++ {
		scanRow(i%side, 0)
	}
	best := time.Duration(math.MaxInt64)
	for range calibrationRounds {
		start := time.Now()
		n := 0
		for n < calibrationPoints {
			for z := 0; z < side && n < calibrationPoints; z++ {
				for y := 0; y < side && n < calibrationPoints; y++ {
					scanRow(y, z)
					n += side
				}
			}
		}
		best = min(best, time.Since(start)/time.Duration(n))
	}
	_ = sink
	return max(best, time.Nanosecond)
}
