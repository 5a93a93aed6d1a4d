package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/field"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/stencil"
)

// The oracle evaluates every queried field by brute force: the raw block is
// wrapped periodically into one whole-domain block with a halo margin and
// the field's per-point Eval/Norm runs at every grid point. It shares no
// code with the row kernels, the atom assembly, the cache or the cluster,
// so it is what every answer of every run is compared against, bit for bit.

// pdfBins is the bin count of the workloads' PDF ops (paper Fig. 2: ten
// bins one RMS wide).
const pdfBins = 10

// classKey identifies one evaluated quantity.
type classKey struct {
	field string
	order int
	step  int
}

func (k classKey) String() string { return fmt.Sprintf("%s/o%d/t%d", k.field, k.order, k.step) }

// oraclePoint is one grid point of a class, with its norm at full precision.
type oraclePoint struct {
	code morton.Code
	norm float64
}

// oracleClass holds what the checker needs about one class: the thresholds
// of the workload's levels, every point at or above the lowest of them, the
// PDF of the whole domain and its RMS bin width.
type oracleClass struct {
	key        classKey
	domain     grid.Box
	thresholds []float64     // ascending; thresholds[i] yields the workload's i-th result fraction
	kept       []oraclePoint // every point with norm ≥ thresholds[0], ascending by code
	rms        float64
	pdf        []int64
}

// buildOracleClass evaluates one class over the whole domain. fractions are
// the result fractions of the workload's levels in descending order, so the
// resolved thresholds ascend.
func buildOracleClass(src *source, key classKey, fractions []float64) (*oracleClass, error) {
	f, err := derived.Standard().Lookup(key.field)
	if err != nil {
		return nil, err
	}
	if len(f.Raws) != 1 {
		return nil, fmt.Errorf("bench: oracle handles single-input fields, %q reads %d", key.field, len(f.Raws))
	}
	st, err := stencil.Get(key.order)
	if err != nil {
		return nil, err
	}
	hw, err := f.HalfWidth(key.order)
	if err != nil {
		return nil, err
	}
	raw, err := src.Field(f.Raws[0].Name, key.step)
	if err != nil {
		return nil, err
	}
	g := src.Grid()
	n := g.N

	workers := runtime.GOMAXPROCS(0)
	slabs := func(lo, hi int, fn func(zlo, zhi int)) {
		var wg sync.WaitGroup
		span := hi - lo
		for w := 0; w < workers; w++ {
			zlo, zhi := lo+span*w/workers, lo+span*(w+1)/workers
			wg.Add(1)
			go func() {
				defer wg.Done()
				fn(zlo, zhi)
			}()
		}
		wg.Wait()
	}

	ext := field.NewBlock(g.Domain().Expand(hw), raw.NComp)
	slabs(ext.Bounds.Lo.Z, ext.Bounds.Hi.Z, func(zlo, zhi int) {
		var p grid.Point
		for p.Z = zlo; p.Z < zhi; p.Z++ {
			for p.Y = ext.Bounds.Lo.Y; p.Y < ext.Bounds.Hi.Y; p.Y++ {
				for p.X = ext.Bounds.Lo.X; p.X < ext.Bounds.Hi.X; p.X++ {
					srcPt := g.WrapPoint(p)
					for c := 0; c < raw.NComp; c++ {
						ext.Set(p, c, raw.At(srcPt, c))
					}
				}
			}
		}
	})

	norms := make([]float64, n*n*n) // x-fastest
	bls := []*field.Block{ext}
	slabs(0, n, func(zlo, zhi int) {
		scratch := make([]float64, f.OutComp)
		var p grid.Point
		for p.Z = zlo; p.Z < zhi; p.Z++ {
			for p.Y = 0; p.Y < n; p.Y++ {
				for p.X = 0; p.X < n; p.X++ {
					norms[(p.Z*n+p.Y)*n+p.X] = f.Norm(st, bls, p, g.Dx, scratch)
				}
			}
		}
	})

	oc := &oracleClass{key: key, domain: g.Domain()}
	var sumSq float64
	for _, v := range norms {
		sumSq += v * v
	}
	oc.rms = math.Sqrt(sumSq / float64(len(norms)))
	oc.pdf = make([]int64, pdfBins)
	for _, v := range norms {
		oc.pdf[pdfBin(v, oc.rms)]++
	}

	sorted := append([]float64(nil), norms...)
	sort.Float64s(sorted)
	for _, frac := range fractions {
		thr, err := resolveThreshold(sorted, frac)
		if err != nil {
			return nil, fmt.Errorf("bench: %v fraction %g: %w", key, frac, err)
		}
		oc.thresholds = append(oc.thresholds, thr)
	}
	if !sort.Float64sAreSorted(oc.thresholds) {
		return nil, fmt.Errorf("bench: %v: fractions must descend", key)
	}
	if len(oc.thresholds) > 0 {
		lowest := oc.thresholds[0]
		var p grid.Point
		for p.Z = 0; p.Z < n; p.Z++ {
			for p.Y = 0; p.Y < n; p.Y++ {
				for p.X = 0; p.X < n; p.X++ {
					if v := norms[(p.Z*n+p.Y)*n+p.X]; v >= lowest {
						oc.kept = append(oc.kept, oraclePoint{morton.Encode(uint32(p.X), uint32(p.Y), uint32(p.Z)), v})
					}
				}
			}
		}
		sort.Slice(oc.kept, func(i, j int) bool { return oc.kept[i].code < oc.kept[j].code })
	}
	return oc, nil
}

// pdfBin is the bucket of norm v in a pdfBins-bucket histogram starting at
// 0 with buckets width wide, the last one open-ended.
func pdfBin(v, width float64) int {
	b := int(v / width)
	if b >= pdfBins {
		b = pdfBins - 1
	}
	return b
}

// resolveThreshold picks the threshold that yields round(frac·N) points
// from the ascending norms. It sits midway between two neighbouring norms
// and both neighbours must stay on their side of it when rounded to
// float32: the scan compares float64 norms and the cache compares the
// float32 values it stored, so a threshold inside that rounding gap would
// make a cold answer and a cached one differ by a point.
func resolveThreshold(sorted []float64, frac float64) (float64, error) {
	want := int(math.Round(frac * float64(len(sorted))))
	if want < 1 {
		want = 1
	}
	for k := want; k < len(sorted); k++ {
		above, below := sorted[len(sorted)-k], sorted[len(sorted)-k-1]
		thr := (above + below) / 2
		if float64(float32(above)) >= thr && float64(float32(below)) < thr && above >= thr && below < thr {
			return thr, nil
		}
	}
	return 0, fmt.Errorf("no unambiguous threshold")
}

// expectThreshold returns the exact answer to a threshold query.
func (oc *oracleClass) expectThreshold(thr float64, box grid.Box) []query.ResultPoint {
	if box == (grid.Box{}) {
		box = oc.domain
	}
	whole := box == oc.domain
	var out []query.ResultPoint
	for _, p := range oc.kept {
		if p.norm < thr {
			continue
		}
		if !whole {
			x, y, z := p.code.Decode()
			if !box.Contains(grid.Point{X: int(x), Y: int(y), Z: int(z)}) {
				continue
			}
		}
		out = append(out, query.ResultPoint{Code: p.code, Value: float32(p.norm)})
	}
	return out
}

// checkThreshold compares an answer with the oracle's: same points in
// ascending Morton order, every value bit-equal.
func (oc *oracleClass) checkThreshold(thr float64, box grid.Box, got []query.ResultPoint) error {
	if thr < oc.thresholds[0] {
		return fmt.Errorf("%v: threshold %g below the oracle's floor %g", oc.key, thr, oc.thresholds[0])
	}
	return comparePoints(oc.key, got, oc.expectThreshold(thr, box))
}

func comparePoints(key classKey, got, want []query.ResultPoint) error {
	if len(got) != len(want) {
		return fmt.Errorf("%v: %d points, oracle has %d", key, len(got), len(want))
	}
	for i := range want {
		if got[i].Code != want[i].Code {
			return fmt.Errorf("%v: point %d is %v, oracle has %v", key, i, got[i].Code, want[i].Code)
		}
		if math.Float32bits(got[i].Value) != math.Float32bits(want[i].Value) {
			return fmt.Errorf("%v: point %d (%v) value bits %08x, oracle has %08x",
				key, i, got[i].Code, math.Float32bits(got[i].Value), math.Float32bits(want[i].Value))
		}
	}
	return nil
}

// checkPDF compares whole-domain histogram counts.
func (oc *oracleClass) checkPDF(got []int64) error {
	if len(got) != len(oc.pdf) {
		return fmt.Errorf("%v: PDF has %d bins, oracle has %d", oc.key, len(got), len(oc.pdf))
	}
	for i := range got {
		if got[i] != oc.pdf[i] {
			return fmt.Errorf("%v: PDF bin %d holds %d, oracle has %d", oc.key, i, got[i], oc.pdf[i])
		}
	}
	return nil
}

// checkTopK compares a whole-domain top-k answer: k points ordered by
// descending float32 value then ascending code, each a true point of the
// field, and the value sequence equal to the oracle's k largest. Points
// tied at the k-th float32 value are interchangeable, so the point set is
// compared through its values.
func (oc *oracleClass) checkTopK(k int, got []query.ResultPoint) error {
	if len(oc.kept) < k {
		return fmt.Errorf("%v: oracle keeps %d points, top-%d needs more", oc.key, len(oc.kept), k)
	}
	if len(got) != k {
		return fmt.Errorf("%v: top-k returned %d points, want %d", oc.key, len(got), k)
	}
	byCode := make(map[morton.Code]float32, len(oc.kept))
	vals := make([]float32, 0, len(oc.kept))
	for _, p := range oc.kept {
		byCode[p.code] = float32(p.norm)
		vals = append(vals, float32(p.norm))
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] > vals[j] })
	for i, p := range got {
		want, ok := byCode[p.Code]
		if !ok || math.Float32bits(want) != math.Float32bits(p.Value) {
			return fmt.Errorf("%v: top-k point %d (%v, %g) is not a point of the field", oc.key, i, p.Code, p.Value)
		}
		if math.Float32bits(p.Value) != math.Float32bits(vals[i]) {
			return fmt.Errorf("%v: top-k rank %d has value %g, oracle has %g", oc.key, i, p.Value, vals[i])
		}
		if i > 0 && got[i-1].Value == p.Value && got[i-1].Code >= p.Code { //lint:allow floateq exact ties are what the order rule is about
			return fmt.Errorf("%v: top-k ranks %d and %d tie on value but not in code order", oc.key, i-1, i)
		}
	}
	return nil
}

// oracle is the set of classes one workload queries.
type oracle struct {
	classes map[classKey]*oracleClass
}

func buildOracle(src *source, keys []classKey, fractions []float64) (*oracle, error) {
	o := &oracle{classes: make(map[classKey]*oracleClass, len(keys))}
	for _, k := range keys {
		oc, err := buildOracleClass(src, k, fractions)
		if err != nil {
			return nil, err
		}
		o.classes[k] = oc
	}
	return o, nil
}
