package node

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/field"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/stencil"
)

// walkPrediction predicts, from the node's synopsis as it stands and the
// oracle's norms, the atoms a top-k walk over q leaves out and the points
// of q's box in them: round 1 is every atom of unknown or NaN maximum and
// the ⌈k/4⌉ largest known maxima, and an atom is left out when the k-th
// point of round 1 outranks its maximum.
func walkPrediction(t *testing.T, n *Node, f *derived.Field, q query.TopK, norms []float64) (atoms, points int) {
	t.Helper()
	g := n.Grid()
	q = q.Normalize(g.Domain())
	all, err := n.scanAtomsCovering(q.Box, q.Scan)
	if err != nil {
		t.Fatal(err)
	}
	syn := n.openSynopsis(f, stencil.MustGet(q.FDOrder), q.Timestep)
	type atom struct {
		code morton.Code
		max  float64
	}
	var first []morton.Code
	var ranked []atom
	for _, c := range all {
		if max, ok := syn.known(c); ok && !math.IsNaN(max) {
			ranked = append(ranked, atom{c, max})
		} else {
			first = append(first, c)
		}
	}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].max > ranked[j].max }) // ties stay in code order
	lead := min((q.K+topKLead-1)/topKLead, len(ranked))
	for _, a := range ranked[:lead] {
		first = append(first, a.code)
	}
	var pts []query.ResultPoint
	for _, c := range first {
		b := g.AtomBox(c).Intersect(q.Box)
		var p grid.Point
		for p.Z = b.Lo.Z; p.Z < b.Hi.Z; p.Z++ {
			for p.Y = b.Lo.Y; p.Y < b.Hi.Y; p.Y++ {
				for p.X = b.Lo.X; p.X < b.Hi.X; p.X++ {
					pts = append(pts, query.PointFor(p, norms[(p.Z*g.N+p.Y)*g.N+p.X]))
				}
			}
		}
	}
	sort.Slice(pts, func(i, j int) bool { return query.RanksBefore(pts[i], pts[j]) })
	for _, a := range ranked[lead:] {
		if len(pts) >= q.K && query.Outranked(a.max, pts[q.K-1]) {
			atoms++
			points += g.AtomBox(a.code).Intersect(q.Box).NumPoints()
		}
	}
	return atoms, points
}

// spiky is a still velocity field of side n with the given norms set: at
// each point the x-component is the value and the others are 0, so the
// velocity norm there is exactly |value| (and NaN for a NaN).
func spiky(n int, vals map[grid.Point]float64) *field.Block {
	bl := field.NewBlock(grid.Box{Hi: grid.Point{X: n, Y: n, Z: n}}, 3)
	for p, v := range vals {
		bl.Set(p, 0, v)
	}
	return bl
}

// A top-k over a warm synopsis walks at most two rounds and stops: against
// a twin without the synopsis every answer is bit-identical, and what the
// walk saved is exactly the points of the atoms it left out, predicted from
// the synopsis and the oracle's norms. Each row pins one way the walk can
// go wrong: ties at the k-th value (stopping at equality loses the tied
// point of smaller code), NaN and ±Inf, a partly known synopsis, k beyond
// the box, a box that clips atoms, replica routes, one and three workers,
// and answers that only round 2 finds.
func TestTopKWalk(t *testing.T) {
	const gridN = 32 // 4×4×4 atoms of side 8
	pt := func(x, y, z int) grid.Point { return grid.Point{X: x, Y: y, Z: z} }
	nan, negNaN, inf := math.NaN(), math.Copysign(math.NaN(), -1), math.Inf(1)
	gustyVel := map[string]*field.Block{derived.Velocity: gusty(gridN, 3, 7)}
	specials := gusty(gridN, 3, 8)
	for i, p := range []grid.Point{pt(3, 3, 3), pt(20, 5, 9), pt(30, 30, 2), pt(9, 17, 25)} {
		specials.Set(p, i%3, []float64{nan, inf, -inf, negNaN}[i])
	}
	specialNorms := map[string]*field.Block{derived.Velocity: spiky(gridN, map[grid.Point]float64{
		pt(1, 2, 3): nan, pt(30, 2, 3): nan, pt(8, 8, 8): inf, pt(16, 8, 24): -inf, pt(0, 31, 0): inf,
		pt(12, 4, 4): negNaN, pt(13, 4, 4): 0.25, pt(20, 20, 20): 3, pt(21, 20, 20): 2, pt(4, 28, 17): 1.5,
		pt(5, 5, 30): 1.25, pt(26, 3, 11): 1.125, pt(2, 19, 7): 0.75,
	})}
	thin := grid.Box{Lo: pt(7, 7, 7), Hi: pt(9, 9, 9)} // one point in each of eight atoms

	for _, tc := range []struct {
		name   string
		raws   map[string]*field.Block
		field  string
		order  int
		k      int
		box    grid.Box // zero: the domain
		warm   grid.Box // what a threshold scan teaches the synopsis first; zero: the domain
		nodes  int
		procs  int
		routed bool // k = 2 placement; each node scans the replica range it holds
		prunes bool // the walk must leave atoms out
	}{
		{
			// The 5 and two 2s sit in atom 63, the one round 1 evaluates;
			// atom 4 holds a 2 of smaller code, which only an atom at the
			// k-th value being scanned finds.
			name: "tie at the k-th value", field: derived.Velocity, k: 3, nodes: 1, procs: 1, prunes: true,
			raws: map[string]*field.Block{derived.Velocity: spiky(gridN, map[grid.Point]float64{
				pt(28, 28, 28): 5, pt(29, 28, 28): 2, pt(30, 29, 31): 2, pt(1, 1, 9): 2, pt(17, 2, 3): 1,
			})},
		},
		{
			// Round 1 takes atom 63 (9 and seven 1s) and atom 0 (8.5): its
			// k-th value is 1, and the 5 of atom 7 is round 2's.
			name: "needs round 2", field: derived.Velocity, k: 8, nodes: 1, procs: 1, prunes: true,
			raws: map[string]*field.Block{derived.Velocity: spiky(gridN, map[grid.Point]float64{
				pt(31, 31, 31): 9, pt(24, 24, 24): 1, pt(25, 24, 24): 1, pt(26, 24, 24): 1, pt(27, 24, 24): 1,
				pt(24, 25, 24): 1, pt(24, 26, 24): 1, pt(24, 27, 24): 1,
				pt(0, 0, 0): 8.5, pt(9, 9, 9): 5, pt(16, 0, 0): 0.5,
			})},
		},
		// On node 0 round 1 takes the two NaN atoms and the +Inf atom of
		// smaller code: at k = 3 the k-th value is +Inf and the other +Inf
		// atom ties it; at k = 2 it is a NaN, which every number ranks after.
		// The −NaN ranks after every number: its atom's maximum is 0.25.
		{name: "NaN and ±Inf in the raw norms", raws: specialNorms, field: derived.Velocity, k: 3, nodes: 2, procs: 2, prunes: true},
		{name: "a NaN k-th value", raws: specialNorms, field: derived.Velocity, k: 2, nodes: 2, procs: 2, prunes: true},
		{name: "NaN and ±Inf under a stencil", raws: map[string]*field.Block{derived.Velocity: specials},
			field: derived.Vorticity, order: 4, k: 40, nodes: 2, procs: 2},
		{name: "partly known synopsis", raws: gustyVel, field: derived.Vorticity, order: 4, k: 30, nodes: 2, procs: 2,
			warm: grid.Box{Lo: pt(0, 0, 0), Hi: pt(24, 32, 16)}, prunes: true},
		{name: "k larger than the box", raws: gustyVel, field: derived.Vorticity, order: 4, k: 100, box: thin, nodes: 1, procs: 1},
		{name: "round 1 short of k", raws: gustyVel, field: derived.Vorticity, order: 4, k: 4, box: thin, nodes: 1, procs: 1},
		{name: "unaligned box", raws: gustyVel, field: derived.QCriterion, order: 6, k: 25, nodes: 2, procs: 2,
			box: grid.Box{Lo: pt(3, 5, 2), Hi: pt(29, 27, 30)}, prunes: true},
		{name: "replica routes", raws: gustyVel, field: derived.Vorticity, order: 8, k: 15, nodes: 4, routed: true, prunes: true},
		{name: "one worker", raws: gustyVel, field: derived.Vorticity, order: 2, k: 50, nodes: 1, procs: 1, prunes: true},
		{name: "three workers", raws: gustyVel, field: derived.Vorticity, order: 2, k: 50, nodes: 1, procs: 3, prunes: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			build := func() []*Node {
				if tc.routed {
					return replicatedCluster(t, gridN, tc.raws, tc.nodes)
				}
				return clusterOver(t, gridN, tc.raws, tc.nodes, tc.procs)
			}
			nodes, twins := build(), build()
			for _, tw := range twins {
				tw.synopsis = nil
			}
			f, err := derived.Standard().Lookup(tc.field)
			if err != nil {
				t.Fatal(err)
			}
			order := tc.order
			if order == 0 {
				order = query.DefaultFDOrder
			}
			norms := oracleNorms(t, nodes[0].Grid(), tc.raws, f, order)
			pruned := 0
			for i, n := range nodes {
				var scan []morton.Range
				if tc.routed {
					scan = n.Held()[1:]
				}
				warm := query.Threshold{Dataset: "noise", Field: tc.field, FDOrder: order, Threshold: math.Inf(1),
					Box: tc.warm, Scan: scan, Limit: 1 << 20}
				if _, err := n.GetThreshold(ctx, nil, warm); err != nil {
					t.Fatal(err)
				}
				q := query.TopK{Dataset: "noise", Field: tc.field, FDOrder: order, K: tc.k, Box: tc.box, Scan: scan}
				wantAtoms, wantPoints := walkPrediction(t, n, f, q, norms)
				got, err := n.GetTopK(ctx, nil, q)
				if err != nil {
					t.Fatal(err)
				}
				want, err := twins[i].GetTopK(ctx, nil, q)
				if err != nil {
					t.Fatal(err)
				}
				where := fmt.Sprintf("node %d", i)
				exactPoints(t, got.Points, want.Points, where)
				if bd, tbd := got.Breakdown, want.Breakdown; bd.AtomsPruned != wantAtoms || tbd.AtomsPruned != 0 ||
					bd.PointsExamined+wantPoints != tbd.PointsExamined {
					t.Fatalf("%s: pruned %d atoms / examined %d points; predicted %d atoms, %d points of the twin's %d",
						where, bd.AtomsPruned, bd.PointsExamined, wantAtoms, wantPoints, tbd.PointsExamined)
				}
				pruned += wantAtoms
			}
			if tc.prunes && pruned == 0 {
				t.Fatal("the walk left no atom out; the row compared two full scans")
			}
		})
	}
}
