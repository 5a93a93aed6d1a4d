package node

import (
	"context"
	"math"
	"runtime/debug"
	"sort"
	"testing"

	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/field"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sim"
	"github.com/turbdb/turbdb/internal/stencil"
	"github.com/turbdb/turbdb/internal/synth"
)

// exactPoints asserts got ≡ want including bit-exact values — the engine's
// row kernels replay the per-point float operations, so even the float32
// result payloads must agree exactly with the brute-force reference.
func exactPoints(t *testing.T, got, want []query.ResultPoint, context string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d", context, len(got), len(want))
	}
	for i := range want {
		if got[i].Code != want[i].Code {
			t.Fatalf("%s: point %d code %v, want %v", context, i, got[i].Code, want[i].Code)
		}
		if math.Float32bits(got[i].Value) != math.Float32bits(want[i].Value) {
			t.Fatalf("%s: point %d value %x, want %x (bit mismatch)",
				context, i, math.Float32bits(got[i].Value), math.Float32bits(want[i].Value))
		}
	}
}

// Every standard-catalog field, every FD order, over a query box that clips
// atom boundaries on all axes: the bulk engine must agree with the
// per-point brute-force reference point for point, bit for bit.
func TestThresholdClippedROIMatchesBruteForceExactly(t *testing.T) {
	nodes, gen := buildCluster(t, 2, 16, synth.MHD, false, 2)
	// Clips every atom it touches: not aligned to the 8-point atom grid.
	qbox := grid.Box{Lo: grid.Point{X: 3, Y: 1, Z: 5}, Hi: grid.Point{X: 14, Y: 12, Z: 11}}
	for _, name := range derived.Standard().Names() {
		for _, order := range stencil.Orders() {
			ref := bruteForce(t, gen, name, 0, order, 0)
			var want []query.ResultPoint
			for _, p := range ref {
				if qbox.Contains(p.Coords()) {
					want = append(want, p)
				}
			}
			got, _ := runThreshold(t, nodes, query.Threshold{
				Dataset: "mhd", Field: name, Timestep: 0, Threshold: 0,
				Box: qbox, FDOrder: order, Limit: 1 << 20,
			})
			exactPoints(t, got, want, name)
		}
	}
}

// deadFetcher fails every halo fetch, simulating unreachable peers.
type deadFetcher struct{}

func (deadFetcher) FetchAtoms(context.Context, *sim.Proc, string, int, []morton.Code) (map[morton.Code][]byte, error) {
	return nil, context.DeadlineExceeded
}

// Partial-halo degradation differential: with peers down and
// AllowPartialHalo on, exactly the atoms whose halo band crosses the
// ownership boundary are skipped, and every point that IS returned still
// matches the brute-force reference bit for bit.
func TestPartialHaloSkipPathMatchesBruteForceExactly(t *testing.T) {
	nodes, gen := buildCluster(t, 2, 16, synth.Isotropic, false, 1)
	g := gen.Grid()
	const order = 4
	hw := stencil.MustGet(order).HalfWidth
	ref := bruteForce(t, gen, derived.Vorticity, 0, order, 0)
	byCode := make(map[morton.Code]query.ResultPoint, len(ref))
	for _, p := range ref {
		byCode[p.Code] = p
	}

	var got []query.ResultPoint
	var wantTotal []query.ResultPoint
	skippedTotal := 0
	for _, n := range nodes {
		n.partialHalo = true
		n.peers = deadFetcher{}
		res, err := n.GetThreshold(context.Background(), nil, query.Threshold{
			Dataset: "isotropic", Field: derived.Vorticity, Timestep: 0,
			Threshold: 0, FDOrder: order, Limit: 1 << 20,
		})
		if err != nil {
			t.Fatalf("node %d: %v", n.ID(), err)
		}
		skippedTotal += res.Breakdown.AtomsSkipped
		got = append(got, res.Points...)

		// Expected survivors: this node's atoms whose whole halo band is
		// locally owned.
		codes, err := n.scanAtomsCovering(g.Domain(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range codes {
			covers, err := g.AtomsCovering(g.AtomBox(c).Expand(hw))
			if err != nil {
				t.Fatal(err)
			}
			local := true
			for _, cc := range covers {
				if !n.Owned().Contains(cc) {
					local = false
					break
				}
			}
			if !local {
				continue
			}
			abox := g.AtomBox(c)
			var p grid.Point
			for p.Z = abox.Lo.Z; p.Z < abox.Hi.Z; p.Z++ {
				for p.Y = abox.Lo.Y; p.Y < abox.Hi.Y; p.Y++ {
					for p.X = abox.Lo.X; p.X < abox.Hi.X; p.X++ {
						wantTotal = append(wantTotal, byCode[query.PointFor(p, 0).Code])
					}
				}
			}
		}
	}
	if skippedTotal == 0 {
		t.Fatal("no atoms skipped — dead peers did not degrade the halo")
	}
	sort.Slice(got, func(i, j int) bool { return got[i].Code < got[j].Code })
	sort.Slice(wantTotal, func(i, j int) bool { return wantTotal[i].Code < wantTotal[j].Code })
	exactPoints(t, got, wantTotal, "partial-halo survivors")
}

// Steady-state allocation regression: once the slab pool is warm, scanning
// more slabs must not allocate more — the per-slab cost of the compute loop
// (slab walk, blob decode, row kernels, and a consumer fed rows with no
// qualifying point) is zero heap allocations.
func TestScanShardSteadyStateZeroAllocsPerSlab(t *testing.T) {
	if raceEnabled {
		// sync.Pool deliberately drops a fraction of Puts under the race
		// detector, so steady-state allocation counts are meaningless there.
		t.Skip("allocation counts are not stable under -race")
	}
	n := clusterOver(t, 64, map[string]*field.Block{derived.Velocity: noise(64, 3, 4)}, 1, 1)[0]
	f, err := derived.Standard().Lookup(derived.Vorticity)
	if err != nil {
		t.Fatal(err)
	}
	const order = 4
	st := stencil.MustGet(order)
	hw := st.HalfWidth
	// Clips the slabs it touches and leaves lone atoms at the edges, so
	// every slab size takes part.
	qbox := grid.Box{Lo: grid.Point{X: 3, Y: 3, Z: 3}, Hi: grid.Point{X: 61, Y: 61, Z: 61}}
	codes, err := n.scanAtomsCovering(qbox, nil)
	if err != nil {
		t.Fatal(err)
	}
	data := n.gather(context.Background(), nil, f.Raws, 0, codes, qbox, hw, newBufferPool())
	if data.err != nil {
		t.Fatal(data.err)
	}
	var results []query.ResultPoint
	consume := func(p grid.Point, norms []float64) bool {
		for i, norm := range norms {
			if norm >= math.Inf(1) {
				results = append(results, query.PointFor(p.Add(i, 0, 0), norm))
			}
		}
		return true
	}
	scan := func(shard []morton.Code) {
		if _, err := n.scanShard(context.Background(), nil, f, st, shard, data, qbox, hw, math.Inf(-1), consume); err != nil {
			t.Fatal(err)
		}
	}
	_, first := slabAt(codes)
	if first == len(codes) {
		t.Fatalf("the shard is a single slab of %d atoms; nothing to compare", first)
	}
	// Warm the slab pool, then freeze GC so pooled blocks cannot be
	// collected mid-measurement.
	scan(codes)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	one := testing.AllocsPerRun(10, func() { scan(codes[:first]) })
	all := testing.AllocsPerRun(10, func() { scan(codes) })
	if all > one {
		t.Errorf("scanShard allocates per slab: %v allocs for %d atoms vs %v for the first slab of %d",
			all, len(codes), one, first)
	}
}
