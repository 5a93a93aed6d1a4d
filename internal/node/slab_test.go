package node

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/field"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sim"
	"github.com/turbdb/turbdb/internal/stencil"
	"github.com/turbdb/turbdb/internal/store"
)

// advection is a test-registered field over two raw inputs with no row
// kernel: v · (∂b_x/∂x, ∂b_y/∂y, ∂b_z/∂z). It makes the slab operator
// assemble two slab blocks per slab and takes NormRow's per-point fallback.
var advection = &derived.Field{
	Name:    "advection",
	Raws:    []derived.RawInput{{Name: derived.Velocity, NComp: 3}, {Name: derived.Magnetic, NComp: 3}},
	OutComp: 1, NeedsStencil: true,
	Eval: func(st stencil.Stencil, bls []*field.Block, p grid.Point, dx float64, out []float64) {
		out[0] = bls[0].At(p, 0)*st.Deriv(bls[1], p, 0, stencil.AxisX, dx) +
			bls[0].At(p, 1)*st.Deriv(bls[1], p, 1, stencil.AxisY, dx) +
			bls[0].At(p, 2)*st.Deriv(bls[1], p, 2, stencil.AxisZ, dx)
	},
}

// noise is a whole-domain block of seeded white noise: what the slab tests
// store. The operator's correctness does not depend on the data looking
// like turbulence, and synthesis would dominate their run time.
func noise(n, nc int, seed int64) *field.Block {
	rng := rand.New(rand.NewSource(seed))
	bl := field.NewBlock(grid.Box{Hi: grid.Point{X: n, Y: n, Z: n}}, nc)
	for i := range bl.Data {
		bl.Data[i] = float32(rng.NormFloat64())
	}
	return bl
}

// clusterOver builds an in-process cluster of nNodes over one hand-made
// time-step of side gridN: raws maps each stored field to its whole-domain
// block.
func clusterOver(t testing.TB, gridN int, raws map[string]*field.Block, nNodes, procs int) []*Node {
	t.Helper()
	g, err := grid.New(gridN, grid.DefaultAtomSide, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*Node, nNodes)
	for i, owned := range g.AtomRange().Split(nNodes, 1) {
		st, err := store.New(store.Config{Grid: g, Owned: owned})
		if err != nil {
			t.Fatal(err)
		}
		for name, bl := range raws {
			if err := st.CreateField(store.FieldMeta{Name: name, NComp: bl.NComp}); err != nil {
				t.Fatal(err)
			}
			if _, err := st.IngestBlock(name, 0, bl); err != nil {
				t.Fatal(err)
			}
		}
		if nodes[i], err = New(Config{ID: i, Dataset: "noise", Store: st, Processes: procs}); err != nil {
			t.Fatal(err)
		}
	}
	for i, n := range nodes {
		n.peers = &testFetcher{nodes: nodes, self: i}
	}
	return nodes
}

// oracleNorms evaluates f at every grid point by brute force — every raw
// input wrapped periodically into one whole-domain block, Field.Norm point
// by point — and returns the norms x-fastest. It shares no code with the
// slab walk, the blob decode or the row kernels.
func oracleNorms(t testing.TB, g grid.Grid, raws map[string]*field.Block, f *derived.Field, order int) []float64 {
	t.Helper()
	st := stencil.MustGet(order)
	hw, err := f.HalfWidth(order)
	if err != nil {
		t.Fatal(err)
	}
	exts := make([]*field.Block, len(f.Raws))
	for i, rf := range f.Raws {
		raw := raws[rf.Name]
		exts[i] = field.NewBlock(g.Domain().Expand(hw), rf.NComp)
		exts[i].Fill(func(p grid.Point, vals []float64) {
			for c := range vals {
				vals[c] = raw.At(g.WrapPoint(p), c)
			}
		})
	}
	norms := make([]float64, 0, g.N*g.N*g.N)
	scratch := make([]float64, f.OutComp)
	var p grid.Point
	for p.Z = 0; p.Z < g.N; p.Z++ {
		for p.Y = 0; p.Y < g.N; p.Y++ {
			for p.X = 0; p.X < g.N; p.X++ {
				norms = append(norms, f.Norm(st, exts, p, g.Dx, scratch))
			}
		}
	}
	return norms
}

// scanCase is one input of the slab differential.
type scanCase struct {
	name  string
	box   grid.Box
	field string
	order int
	procs int
	// scan, per node, restricts the evaluation to sub-ranges of what the
	// node holds (the mediator's replica routing); nil scans the shard.
	scan [][]morton.Range
}

// slabCases builds the differential's inputs: the boxes that exercise the
// ROI-derived halo (the unaligned probe the benchmark reports, a sub-atom
// box, boxes whose halo wraps around either domain face), then 64 seeded
// random boxes, one per (FD order, field, worker count) triple; every other
// random case cuts its super-cells with scan ranges.
func slabCases(n int, owned []morton.Range) []scanCase {
	cube := func(lo, hi int) grid.Box {
		return grid.Box{Lo: grid.Point{X: lo, Y: lo, Z: lo}, Hi: grid.Point{X: hi, Y: hi, Z: hi}}
	}
	cases := []scanCase{
		{name: "unaligned-probe", box: cube(3, 38), field: derived.Vorticity, order: 4, procs: 1},
		{name: "sub-atom", box: grid.Box{Lo: grid.Point{X: 10, Y: 17, Z: 34}, Hi: grid.Point{X: 13, Y: 19, Z: 35}}, field: derived.QCriterion, order: 8, procs: 2},
		{name: "wrap-low", box: cube(0, 5), field: advection.Name, order: 6, procs: 1},
		{name: "wrap-high", box: cube(n-5, n), field: derived.Vorticity, order: 8, procs: 3},
		{name: "whole-domain", box: cube(0, n), field: derived.Vorticity, order: 4, procs: 2},
	}
	fields := []string{derived.Velocity, derived.Vorticity, derived.QCriterion, advection.Name}
	orders := stencil.Orders()
	procs := []int{1, 2, 3, 8}
	rng := rand.New(rand.NewSource(13))
	span := func() (lo, hi int) {
		lo = rng.Intn(n)
		return lo, lo + 1 + rng.Intn(n-lo)
	}
	for i := 0; i < 64; i++ {
		c := scanCase{
			name:  fmt.Sprintf("random-%02d", i),
			order: orders[i%4], field: fields[i/4%4], procs: procs[i/16%4],
		}
		c.box.Lo.X, c.box.Hi.X = span()
		c.box.Lo.Y, c.box.Hi.Y = span()
		c.box.Lo.Z, c.box.Hi.Z = span()
		if i%2 == 1 {
			for _, r := range owned {
				quarter := int(r.Hi-r.Lo) / 4
				lo := r.Lo + morton.Code(rng.Intn(2*quarter))
				mid := lo + morton.Code(1+rng.Intn(quarter))
				c.scan = append(c.scan, []morton.Range{
					{Lo: lo, Hi: mid},
					{Lo: mid + morton.Code(rng.Intn(9)), Hi: r.Hi - morton.Code(rng.Intn(quarter))},
				})
			}
		}
		cases = append(cases, c)
	}
	return cases
}

// slabGoldens pins, per case of slabCases(64, …) on a 2-node cluster, the
// cluster-wide Breakdown.{AtomsRead, HaloAtoms, PointsExamined} the per-atom
// evaluation produced before the slab operator replaced it: the operator
// may change how atoms are grouped, never which atoms are read or fetched
// nor how many points are evaluated.
var slabGoldens = [][3]int{
	{125, 50, 42875},   // unaligned-probe
	{6, 6, 6},          // sub-atom
	{8, 8, 125},        // wrap-low
	{18, 9, 125},       // wrap-high
	{512, 256, 262144}, // whole-domain
	{4, 0, 40},         // random-00
	{31, 0, 8620},      // random-01
	{24, 0, 2520},      // random-02
	{4, 0, 112},        // random-03
	{16, 0, 324},       // random-04
	{24, 0, 925},       // random-05
	{48, 16, 986},      // random-06
	{27, 0, 360},       // random-07
	{6, 0, 495},        // random-08
	{18, 0, 130},       // random-09
	{48, 24, 3696},     // random-10
	{135, 55, 11844},   // random-11
	{48, 0, 4320},      // random-12
	{36, 0, 624},       // random-13
	{128, 64, 1449},    // random-14
	{68, 28, 444},      // random-15
	{32, 0, 5280},      // random-16
	{156, 0, 48897},    // random-17
	{24, 0, 3060},      // random-18
	{3, 0, 54},         // random-19
	{20, 10, 2436},     // random-20
	{136, 0, 23232},    // random-21
	{24, 16, 720},      // random-22
	{120, 39, 12521},   // random-23
	{64, 32, 13068},    // random-24
	{140, 40, 44064},   // random-25
	{2, 1, 28},         // random-26
	{228, 92, 25196},   // random-27
	{10, 10, 56},       // random-28
	{0, 0, 0},          // random-29
	{80, 0, 1050},      // random-30
	{160, 0, 4752},     // random-31
	{32, 0, 6776},      // random-32
	{8, 0, 360},        // random-33
	{6, 0, 520},        // random-34
	{30, 0, 7450},      // random-35
	{24, 12, 276},      // random-36
	{12, 6, 168},       // random-37
	{90, 30, 13804},    // random-38
	{123, 30, 2862},    // random-39
	{16, 8, 1760},      // random-40
	{42, 14, 3396},     // random-41
	{72, 24, 9248},     // random-42
	{0, 0, 0},          // random-43
	{240, 0, 30360},    // random-44
	{8, 8, 24},         // random-45
	{80, 32, 2755},     // random-46
	{80, 0, 1167},      // random-47
	{60, 0, 16380},     // random-48
	{28, 0, 3612},      // random-49
	{15, 0, 2800},      // random-50
	{17, 0, 2840},      // random-51
	{36, 12, 9072},     // random-52
	{0, 0, 0},          // random-53
	{108, 54, 14620},   // random-54
	{46, 8, 3080},      // random-55
	{30, 0, 434},       // random-56
	{6, 6, 60},         // random-57
	{144, 48, 33696},   // random-58
	{18, 0, 168},       // random-59
	{70, 20, 6032},     // random-60
	{32, 16, 76},       // random-61
	{50, 50, 1624},     // random-62
	{428, 102, 25088},  // random-63
}

// The slab operator against brute force and against the pinned counts, over
// boxes × FD orders × fields (raw, curl, gradient tensor, two raw inputs) ×
// worker counts × scan-range restrictions.
func TestSlabScanDifferential(t *testing.T) {
	const gridN = 64
	raws := map[string]*field.Block{
		derived.Velocity: noise(gridN, 3, 1),
		derived.Magnetic: noise(gridN, 3, 2),
	}
	nodes := clusterOver(t, gridN, raws, 2, 1)
	g := nodes[0].Grid()
	reg := derived.NewRegistry()
	if err := reg.Register(advection); err != nil {
		t.Fatal(err)
	}
	owned := make([]morton.Range, len(nodes))
	for i, n := range nodes {
		n.registry = reg
		owned[i] = n.Owned()
	}
	cases := slabCases(gridN, owned)
	if len(slabGoldens) != len(cases) {
		t.Errorf("%d goldens for %d cases", len(slabGoldens), len(cases))
	}
	type reference struct {
		norms     []float64
		threshold float64
	}
	refs := make(map[string]reference)
	for ci, c := range cases {
		f, err := reg.Lookup(c.field)
		if err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprintf("%s/%d", c.field, c.order)
		if f.IsRaw() {
			key = c.field
		}
		if _, ok := refs[key]; !ok {
			// A threshold at the median keeps half the points: enough to
			// catch a misplaced row anywhere in the box.
			norms := oracleNorms(t, g, raws, f, c.order)
			sorted := append([]float64(nil), norms...)
			sort.Float64s(sorted)
			refs[key] = reference{norms, sorted[len(sorted)/2]}
		}
		norms, threshold := refs[key].norms, refs[key].threshold

		var got, want []query.ResultPoint
		var counts [3]int
		for ni, n := range nodes {
			if err := n.SetProcesses(context.Background(), c.procs); err != nil {
				t.Fatal(err)
			}
			q := query.Threshold{
				Dataset: "noise", Field: c.field, Timestep: 0, Threshold: threshold,
				Box: c.box, FDOrder: c.order, Limit: 1 << 20,
			}
			if c.scan != nil {
				q.Scan = c.scan[ni]
			}
			res, err := n.GetThreshold(context.Background(), nil, q)
			if err != nil {
				t.Fatalf("%s (%s o%d ×%d) node %d: %v", c.name, c.field, c.order, c.procs, ni, err)
			}
			got = append(got, res.Points...)
			counts[0] += res.Breakdown.AtomsRead
			counts[1] += res.Breakdown.HaloAtoms
			counts[2] += res.Breakdown.PointsExamined

			codes, err := n.scanAtomsCovering(c.box, q.Scan)
			if err != nil {
				t.Fatal(err)
			}
			for _, code := range codes {
				roi := g.AtomBox(code).Intersect(c.box)
				var p grid.Point
				for p.Z = roi.Lo.Z; p.Z < roi.Hi.Z; p.Z++ {
					for p.Y = roi.Lo.Y; p.Y < roi.Hi.Y; p.Y++ {
						for p.X = roi.Lo.X; p.X < roi.Hi.X; p.X++ {
							if v := norms[(p.Z*gridN+p.Y)*gridN+p.X]; v >= threshold {
								want = append(want, query.PointFor(p, v))
							}
						}
					}
				}
			}
		}
		sort.Slice(got, func(i, j int) bool { return got[i].Code < got[j].Code })
		sort.Slice(want, func(i, j int) bool { return want[i].Code < want[j].Code })
		ctx := fmt.Sprintf("%s %v (%s o%d ×%d scan %v)", c.name, c.box, c.field, c.order, c.procs, c.scan)
		exactPoints(t, got, want, ctx)
		if ci < len(slabGoldens) && counts != slabGoldens[ci] {
			t.Errorf("%s: {AtomsRead, HaloAtoms, PointsExamined} = %v, pinned %v", ctx, counts, slabGoldens[ci])
		}
	}
}

// holeFetcher serves halo requests like a healthy peer set except for the
// atoms in missing, and reports the fetch as failed — a peer that died
// after answering part of the batch.
type holeFetcher struct {
	inner   PeerFetcher
	missing map[morton.Code]bool
}

func (f holeFetcher) FetchAtoms(ctx context.Context, p *sim.Proc, rawField string, step int, codes []morton.Code) (map[morton.Code][]byte, error) {
	var rest []morton.Code
	for _, c := range codes {
		if !f.missing[c] {
			rest = append(rest, c)
		}
	}
	blobs, err := f.inner.FetchAtoms(ctx, p, rawField, step, rest)
	if err == nil && len(rest) < len(codes) {
		err = context.DeadlineExceeded
	}
	return blobs, err
}

// A slab whose halo band has a hole is not skipped whole: it degrades to its
// atoms, and AtomsSkipped counts exactly the atoms whose own (8+2hw)³ band
// touches a missing blob. Every other point still matches brute force.
func TestPartialHaloHoleDegradesSlabToItsAtoms(t *testing.T) {
	const gridN, order = 64, 4
	// One worker: a second one would race the first for which of them sees a
	// shared halo atom cold, and a failed cold fetch drops the warm one too.
	raws := map[string]*field.Block{derived.Velocity: noise(gridN, 3, 3)}
	n := clusterOver(t, gridN, raws, 2, 1)[0]
	g := n.Grid()
	hw := stencil.MustGet(order).HalfWidth
	// Node 0 owns the lower half in z. Two of node 1's atoms go missing: one
	// above the middle of a 4×4×4 slab's top face, and the one that wraps
	// below the domain corner.
	missing := map[morton.Code]bool{
		g.AtomCode(grid.Point{X: 8, Y: 16, Z: 32}): true,
		g.AtomCode(grid.Point{X: 0, Y: 0, Z: 56}):  true,
	}
	n.partialHalo = true
	n.peers = holeFetcher{inner: n.peers, missing: missing}
	res, err := n.GetThreshold(context.Background(), nil, query.Threshold{
		Dataset: "noise", Field: derived.Vorticity, Timestep: 0,
		Threshold: 0, FDOrder: order, Limit: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}

	f, err := derived.Standard().Lookup(derived.Vorticity)
	if err != nil {
		t.Fatal(err)
	}
	norms := oracleNorms(t, g, raws, f, order)
	codes, err := n.scanAtomsCovering(g.Domain(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []query.ResultPoint
	wantSkipped := 0
	for _, c := range codes {
		abox := g.AtomBox(c)
		touches := !g.ForEachTile(abox.Expand(hw), func(_ grid.Box, cc morton.Code) bool { return !missing[cc] })
		if touches {
			wantSkipped++
			continue
		}
		var p grid.Point
		for p.Z = abox.Lo.Z; p.Z < abox.Hi.Z; p.Z++ {
			for p.Y = abox.Lo.Y; p.Y < abox.Hi.Y; p.Y++ {
				for p.X = abox.Lo.X; p.X < abox.Hi.X; p.X++ {
					want = append(want, query.PointFor(p, norms[(p.Z*gridN+p.Y)*gridN+p.X]))
				}
			}
		}
	}
	// 3×3 atoms of one slab under the first hole; 3×3 atoms above the
	// second, which wrap around the corner into four different slabs.
	if wantSkipped != 9+9 {
		t.Fatalf("test geometry: %d atoms touch a missing blob, expected 18", wantSkipped)
	}
	if res.Breakdown.AtomsSkipped != wantSkipped {
		t.Errorf("AtomsSkipped = %d, want %d", res.Breakdown.AtomsSkipped, wantSkipped)
	}
	sort.Slice(want, func(i, j int) bool { return want[i].Code < want[j].Code })
	exactPoints(t, res.Points, want, "survivors around the holes")
}

// GetTopK retains by a total order — value descending, Morton code ascending
// — so at a float32 tie on the k-th value the answer is the same whatever
// order slabs, rows and workers visit the tied points in.
func TestTopKTiesBreakByMortonCode(t *testing.T) {
	const gridN = 64
	// Tied points chosen so that visit order (slab by slab, row-major
	// inside) and Morton order disagree: inside one atom, across the two
	// 4×4×4 slabs of the lower x-row, and across the two workers' halves.
	tied := []grid.Point{
		{X: 2, Y: 0, Z: 0}, {X: 0, Y: 1, Z: 0}, // row-major visits (2,0,0) first; (0,1,0) has the smaller code
		{X: 33, Y: 0, Z: 0}, {X: 0, Y: 9, Z: 1}, // second slab vs a later row of the first
		{X: 5, Y: 5, Z: 40}, {X: 40, Y: 2, Z: 33}, // the second worker's half
	}
	vel := field.NewBlock(grid.Box{Hi: grid.Point{X: gridN, Y: gridN, Z: gridN}}, 3)
	for _, p := range tied {
		vel.Set(p, 0, 2)
	}
	top := grid.Point{X: 63, Y: 63, Z: 63}
	vel.Set(top, 0, 3)
	byCode := make([]query.ResultPoint, len(tied))
	for i, p := range tied {
		byCode[i] = query.PointFor(p, 2)
	}
	sort.Slice(byCode, func(i, j int) bool { return byCode[i].Code < byCode[j].Code })

	for _, tc := range []struct{ procs, k int }{
		{1, 1}, {1, 2}, {1, 4}, {2, 2}, {2, 3}, {2, 5}, {2, 7}, {3, 4},
	} {
		n := clusterOver(t, gridN, map[string]*field.Block{derived.Velocity: vel}, 1, tc.procs)[0]
		res, err := n.GetTopK(context.Background(), nil, query.TopK{
			Dataset: "noise", Field: derived.Velocity, Timestep: 0, K: tc.k,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := append([]query.ResultPoint{query.PointFor(top, 3)}, byCode...)[:tc.k]
		exactPoints(t, res.Points, want, fmt.Sprintf("top-%d with %d workers", tc.k, tc.procs))
	}
}
