package node

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/field"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/stencil"
	"github.com/turbdb/turbdb/internal/store"
)

// gusty is white noise under an envelope that changes by powers of four
// from one 16³ block to the next: intermittent the way the paper's fields
// are, so every threshold level leaves some atoms without a qualifying
// point and others with many.
func gusty(n, nc int, seed int64) *field.Block {
	bl := noise(n, nc, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	per := n / 16
	amp := make([]float64, per*per*per)
	for i := range amp {
		amp[i] = math.Pow(4, -float64(rng.Intn(5)))
	}
	bl.Fill(func(p grid.Point, vals []float64) {
		a := amp[(p.Z/16*per+p.Y/16)*per+p.X/16]
		for c := range vals {
			vals[c] = a * bl.At(p, c)
		}
	})
	return bl
}

// replicatedCluster is clusterOver with k = 2 placement: node i also holds
// the range node i+1 owns, so a scan can be routed to a node over atoms it
// does not own.
func replicatedCluster(t testing.TB, gridN int, raws map[string]*field.Block, nNodes int) []*Node {
	t.Helper()
	g, err := grid.New(gridN, grid.DefaultAtomSide, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	ranges := g.AtomRange().Split(nNodes, 1)
	nodes := make([]*Node, nNodes)
	for i, owned := range ranges {
		st, err := store.New(store.Config{Grid: g, Owned: owned})
		if err != nil {
			t.Fatal(err)
		}
		st.AdoptRange(ranges[(i+1)%nNodes])
		for name, bl := range raws {
			if err := st.CreateField(store.FieldMeta{Name: name, NComp: bl.NComp}); err != nil {
				t.Fatal(err)
			}
			if _, err := st.IngestBlock(name, 0, bl); err != nil {
				t.Fatal(err)
			}
		}
		if nodes[i], err = New(Config{ID: i, Dataset: "noise", Store: st}); err != nil {
			t.Fatal(err)
		}
	}
	for i, n := range nodes {
		n.peers = &testFetcher{nodes: nodes, self: i}
	}
	return nodes
}

// prunedPoints predicts, from the node's table as it stands, the points of
// box a scan for preds will leave out.
func prunedPoints(t *testing.T, n *Node, f *derived.Field, order int, box grid.Box, scan []morton.Range, preds []atomPred) (atoms, points int) {
	t.Helper()
	all, err := n.scanAtomsCovering(box, scan)
	if err != nil {
		t.Fatal(err)
	}
	kept := make(map[morton.Code]bool)
	syn := n.openSynopsis(f, stencil.MustGet(order), 0)
	for _, c := range syn.filter(n.Grid(), append([]morton.Code(nil), all...), preds) {
		kept[c] = true
	}
	for _, c := range all {
		if !kept[c] {
			atoms++
			points += n.Grid().AtomBox(c).Intersect(box).NumPoints()
		}
	}
	return atoms, points
}

// A seeded interleaving of solo and batch threshold, PDF and top-k queries
// — aligned and unaligned boxes, three scan routings — against a twin
// cluster without the synopsis: every answer is bit-identical, and what the
// synopsis saved is exactly the points of the atoms it pruned.
func TestSynopsisDifferential(t *testing.T) {
	gridN, ops := 64, 160
	if testing.Short() {
		gridN, ops = 32, 60
	}
	raws := map[string]*field.Block{derived.Velocity: gusty(gridN, 3, 5)}
	nodes := replicatedCluster(t, gridN, raws, 4)
	twins := replicatedCluster(t, gridN, raws, 4)
	for _, n := range twins {
		n.synopsis = nil
	}
	ctx := context.Background()
	g := nodes[0].Grid()

	type class struct {
		field  string
		order  int
		levels []float64
	}
	classes := []class{{derived.Velocity, 4, nil}, {derived.Vorticity, 4, nil}, {derived.QCriterion, 6, nil}, {derived.Vorticity, 8, nil}}
	for i := range classes {
		c := &classes[i]
		top, err := twins[0].GetTopK(ctx, nil, query.TopK{Dataset: "noise", Field: c.field, FDOrder: c.order, K: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, share := range []float64{0.9, 0.5, 0.2, 0.05, 0.01} {
			c.levels = append(c.levels, share*float64(top.Points[0].Value))
		}
	}

	rng := rand.New(rand.NewSource(24))
	randBox := func() grid.Box {
		switch rng.Intn(3) {
		case 0:
			return g.Domain()
		case 1: // atom-aligned
			a, per := g.AtomSide, g.AtomsPerSide()
			span := func() (int, int) { lo := rng.Intn(per); return lo * a, (lo + 1 + rng.Intn(per-lo)) * a }
			var b grid.Box
			b.Lo.X, b.Hi.X = span()
			b.Lo.Y, b.Hi.Y = span()
			b.Lo.Z, b.Hi.Z = span()
			return b
		}
		span := func() (int, int) { lo := rng.Intn(gridN); return lo, lo + 1 + rng.Intn(gridN-lo) }
		var b grid.Box
		b.Lo.X, b.Hi.X = span()
		b.Lo.Y, b.Hi.Y = span()
		b.Lo.Z, b.Hi.Z = span()
		return b
	}
	// The routings: the node's own shard, the replica range it holds for its
	// neighbour, and the second half of its shard.
	routing := func(n *Node, kind int) []morton.Range {
		switch kind {
		case 1:
			return n.Held()[1:]
		case 2:
			o := n.Owned()
			return []morton.Range{{Lo: o.Lo + (o.Hi-o.Lo)/2, Hi: o.Hi}}
		}
		return nil
	}
	sameErr := func(where string, got, want error) bool {
		t.Helper()
		var tooMany *query.ErrTooManyPoints
		if (got == nil) != (want == nil) || errors.As(got, &tooMany) != errors.As(want, &tooMany) {
			t.Fatalf("%s: error %v, twin %v", where, got, want)
		}
		return got != nil
	}

	pruned := 0
	for op := 0; op < ops; op++ {
		c := classes[rng.Intn(len(classes))]
		f, err := derived.Standard().Lookup(c.field)
		if err != nil {
			t.Fatal(err)
		}
		route := rng.Intn(3)
		kind := rng.Intn(6) // 0–2 solo, 3 batch, 4 PDF, 5 top-k
		box := randBox()
		limit := 1 << 20
		if rng.Intn(8) == 0 {
			limit = 3 // most scans that find anything stop over the limit
		}
		var members []query.Threshold
		for m := 0; m < 2+rng.Intn(3); m++ {
			members = append(members, query.Threshold{
				Dataset: "noise", Field: c.field, FDOrder: c.order, Limit: limit,
				Threshold: c.levels[rng.Intn(len(c.levels))], Box: randBox(),
			})
		}
		for ni, n := range nodes {
			twin := twins[ni]
			scan := routing(n, route)
			where := fmt.Sprintf("op %d node %d: kind %d %s o%d %v route %d", op, ni, kind, c.field, c.order, box, route)
			switch kind {
			case 3:
				ub := grid.Box{}
				preds := make([]atomPred, len(members))
				for i := range members {
					members[i].Scan = scan
					preds[i] = atomPred{members[i].Box, members[i].Threshold}
					ub = unionBox(ub, members[i].Box)
				}
				wantAtoms, wantPoints := prunedPoints(t, n, f, c.order, ub, scan, preds)
				got, gerr := n.GetThresholdBatch(ctx, nil, members)
				want, werr := twin.GetThresholdBatch(ctx, nil, members)
				if sameErr(where, gerr, werr) {
					continue
				}
				if got.AtomsScanned != want.AtomsScanned-wantAtoms {
					t.Fatalf("%s: AtomsScanned %d, twin %d with %d pruned", where, got.AtomsScanned, want.AtomsScanned, wantAtoms)
				}
				scanned := false
				for i := range members {
					if sameErr(where, got.Errs[i], want.Errs[i]) {
						continue
					}
					exactPoints(t, got.Results[i].Points, want.Results[i].Points, where)
					if bd, tbd := got.Results[i].Breakdown, want.Results[i].Breakdown; !scanned &&
						(bd.AtomsPruned != wantAtoms || tbd.AtomsPruned != 0 || bd.PointsExamined+wantPoints != tbd.PointsExamined) {
						t.Fatalf("%s: pruned %d atoms / examined %d points; predicted %d atoms, %d points of the twin's %d",
							where, bd.AtomsPruned, bd.PointsExamined, wantAtoms, wantPoints, tbd.PointsExamined)
					}
					scanned = true
				}
				if !scanned {
					continue // every member died: the pass stopped wherever
				}
				pruned += wantAtoms
			case 4:
				q := query.PDF{Dataset: "noise", Field: c.field, FDOrder: c.order, Box: box, Scan: scan, Bins: 8, Width: c.levels[0] / 8}
				got, gerr := n.GetPDF(ctx, nil, q)
				want, werr := twin.GetPDF(ctx, nil, q)
				if sameErr(where, gerr, werr) {
					continue
				}
				for i := range want.Counts {
					if got.Counts[i] != want.Counts[i] {
						t.Fatalf("%s: bin %d holds %d, twin %d", where, i, got.Counts[i], want.Counts[i])
					}
				}
				if got.Breakdown.AtomsPruned != 0 || got.Breakdown.PointsExamined != want.Breakdown.PointsExamined {
					t.Fatalf("%s: a PDF pruned %d atoms, examined %d of %d points", where,
						got.Breakdown.AtomsPruned, got.Breakdown.PointsExamined, want.Breakdown.PointsExamined)
				}
			case 5:
				q := query.TopK{Dataset: "noise", Field: c.field, FDOrder: c.order, Box: box, Scan: scan, K: 1 + rng.Intn(50)}
				got, gerr := n.GetTopK(ctx, nil, q)
				want, werr := twin.GetTopK(ctx, nil, q)
				if sameErr(where, gerr, werr) {
					continue
				}
				exactPoints(t, got.Points, want.Points, where)
				if got.Breakdown.AtomsPruned != 0 || got.Breakdown.PointsExamined != want.Breakdown.PointsExamined {
					t.Fatalf("%s: a top-k pruned %d atoms, examined %d of %d points", where,
						got.Breakdown.AtomsPruned, got.Breakdown.PointsExamined, want.Breakdown.PointsExamined)
				}
			default:
				q := members[0]
				q.Box, q.Scan = box, scan
				wantAtoms, wantPoints := prunedPoints(t, n, f, c.order, box, scan, []atomPred{{box, q.Threshold}})
				got, gerr := n.GetThreshold(ctx, nil, q)
				want, werr := twin.GetThreshold(ctx, nil, q)
				if sameErr(where, gerr, werr) {
					continue
				}
				exactPoints(t, got.Points, want.Points, where)
				if bd, tbd := got.Breakdown, want.Breakdown; bd.AtomsPruned != wantAtoms || tbd.AtomsPruned != 0 ||
					bd.PointsExamined+wantPoints != tbd.PointsExamined {
					t.Fatalf("%s: pruned %d atoms / examined %d points; predicted %d atoms, %d points of the twin's %d",
						where, bd.AtomsPruned, bd.PointsExamined, wantAtoms, wantPoints, tbd.PointsExamined)
				}
				pruned += wantAtoms
			}
		}
	}
	if pruned == 0 {
		t.Fatal("no atom was ever pruned; the differential compared two full scans")
	}
	t.Logf("%d ops, %d atom scans pruned", ops, pruned)
}

// learnedAtoms probes what the node's synopsis knows inside box: a +Inf
// threshold qualifies nothing, so exactly the atoms of known maximum are
// pruned. The probe scans — and thereby learns — the rest.
func learnedAtoms(t *testing.T, n *Node, q query.Threshold) int {
	t.Helper()
	q.Threshold, q.Limit = math.Inf(1), 1
	res, err := n.GetThreshold(context.Background(), nil, q)
	if err != nil {
		t.Fatal(err)
	}
	return res.Breakdown.AtomsPruned
}

// What must not reach the table: atoms the query box clips, the slab in
// which a consumer stopped the scan and everything after it, a scan that
// was cancelled, and a degraded (partial-halo) pass. A clean scan of the
// same box then learns every atom, and a drop forgets them again.
func TestSynopsisNeverFed(t *testing.T) {
	const gridN = 32 // 64 atoms: one 4×4×4 slab
	raws := map[string]*field.Block{derived.Velocity: noise(gridN, 3, 9)}
	whole := query.Threshold{Dataset: "noise", Field: derived.Vorticity, FDOrder: 4, Limit: 1 << 20}
	fresh := func() *Node { return clusterOver(t, gridN, raws, 1, 1)[0] }

	t.Run("box-clipped", func(t *testing.T) {
		n := fresh()
		q := whole
		// Covers 3×3×3 atoms, of which only the middle one whole.
		q.Box = grid.Box{Lo: grid.Point{X: 4, Y: 4, Z: 4}, Hi: grid.Point{X: 20, Y: 20, Z: 20}}
		if _, err := n.GetThreshold(context.Background(), nil, q); err != nil {
			t.Fatal(err)
		}
		if got := learnedAtoms(t, n, whole); got != 1 {
			t.Errorf("a scan that held one whole atom taught %d", got)
		}
	})
	t.Run("over-limit", func(t *testing.T) {
		n := fresh()
		q := whole
		q.Limit = 1
		var tooMany *query.ErrTooManyPoints
		if _, err := n.GetThreshold(context.Background(), nil, q); !errors.As(err, &tooMany) {
			t.Fatalf("threshold 0 under limit 1: %v", err)
		}
		if got := learnedAtoms(t, n, whole); got != 0 {
			t.Errorf("the slab the consumer stopped in taught %d atoms", got)
		}
	})
	t.Run("cancelled", func(t *testing.T) {
		n := fresh()
		f, err := n.resolveField(derived.Vorticity)
		if err != nil {
			t.Fatal(err)
		}
		st := stencil.MustGet(4)
		ctx, cancel := context.WithCancel(context.Background())
		// 40 codes are five slabs of 2×2×2 atoms; the consumer cancels in
		// the first, which completes, and the walk stops before the second.
		scan := []morton.Range{{Lo: 0, Hi: 40}}
		_, err = n.evalPhases(ctx, nil, f, st, 0, n.Grid().Domain(), scan, st.HalfWidth, nil, func(int) rowConsumer {
			return func(grid.Point, []float64) bool { cancel(); return true }
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled scan: %v", err)
		}
		if got := learnedAtoms(t, n, whole); got != 0 {
			t.Errorf("a cancelled scan taught %d atoms", got)
		}
	})
	t.Run("partial-halo", func(t *testing.T) {
		nodes := clusterOver(t, gridN, raws, 2, 1)
		n := nodes[0]
		n.partialHalo, n.peers = true, deadFetcher{}
		res, err := n.GetThreshold(context.Background(), nil, whole)
		if err != nil {
			t.Fatal(err)
		}
		if res.Breakdown.AtomsSkipped == 0 {
			t.Fatal("dead peers skipped nothing")
		}
		n.peers = &testFetcher{nodes: nodes, self: 0}
		if got := learnedAtoms(t, n, whole); got != 0 {
			t.Errorf("a degraded scan taught %d atoms", got)
		}
	})
	t.Run("clean-then-drop", func(t *testing.T) {
		n := fresh() // no cache: the drop must reach the synopsis all the same
		if got := learnedAtoms(t, n, whole); got != 0 {
			t.Errorf("a fresh node knows %d atoms", got)
		}
		if got := learnedAtoms(t, n, whole); got != 64 {
			t.Errorf("a clean scan taught %d of 64 atoms", got)
		}
		other := whole
		other.FDOrder = 6
		if got := learnedAtoms(t, n, other); got != 0 {
			t.Errorf("order 6 inherited %d atoms from order 4", got)
		}
		if err := n.DropCacheEntry(context.Background(), derived.Vorticity, 0, 0); err != nil { // 0 = the default order, 4
			t.Fatal(err)
		}
		q := whole
		q.Threshold = math.Inf(1)
		res, err := n.GetThreshold(context.Background(), nil, q)
		if err != nil {
			t.Fatal(err)
		}
		if bd := res.Breakdown; bd.AtomsPruned != 0 || bd.PointsExamined != gridN*gridN*gridN {
			t.Errorf("after a drop the scan pruned %d atoms and examined %d points", bd.AtomsPruned, bd.PointsExamined)
		}
		if got := learnedAtoms(t, n, other); got != 64 {
			t.Errorf("dropping order 4 left order 6 with %d of 64 atoms", got)
		}
	})
}

// The filter's rules on a hand-filled table.
func TestSynopsisFilter(t *testing.T) {
	g, err := grid.New(32, grid.DefaultAtomSide, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	e := newSynopsis(g).open(synKey{"f/fd4", 0})
	all := func() []morton.Code {
		out := make([]morton.Code, g.NumAtoms())
		for i := range out {
			out[i] = morton.Code(i)
		}
		return out
	}
	e.learn(0, 1.0)
	e.learn(1, math.Inf(1))
	e.learn(2, math.NaN())
	e.learn(3, 0)
	for c := 4; c < g.NumAtoms(); c++ {
		e.learn(morton.Code(c), 0.5)
	}
	dom := g.Domain()
	for _, tc := range []struct {
		name  string
		preds []atomPred
		want  []morton.Code
	}{
		{"below every maximum", []atomPred{{dom, 0}}, all()},
		{"reached by two", []atomPred{{dom, 0.75}}, []morton.Code{0, 1, 2}},
		{"the maximum itself qualifies", []atomPred{{dom, 1}}, []morton.Code{0, 1, 2}},
		{"+Inf admits a +Inf norm", []atomPred{{dom, math.Inf(1)}}, []morton.Code{1, 2}},
		{"NaN prunes nothing", []atomPred{{dom, math.NaN()}}, all()},
		{"lowest member decides", []atomPred{{dom, 2}, {dom, 0.75}}, []morton.Code{0, 1, 2}},
		{"a member only counts inside its box", []atomPred{{dom, 2}, {g.AtomBox(3), 0}}, []morton.Code{1, 2, 3}},
		{"no member, no scan", []atomPred{{g.AtomBox(5), 2}}, nil},
	} {
		got := e.filter(g, all(), tc.preds)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: kept %v, want %v", tc.name, got, tc.want)
		}
	}
	// An unknown atom is scanned whenever a member reaches it.
	e.max[7].Store(synUnknown)
	if got := e.filter(g, all(), []atomPred{{dom, 2}}); fmt.Sprint(got) != fmt.Sprint([]morton.Code{1, 2, 7}) {
		t.Errorf("unknown atom: kept %v", got)
	}
}

// The fold's integer keys order exactly as the norms do, and map back.
func TestOrderKey(t *testing.T) {
	vals := []float64{math.Inf(-1), -2, -math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 1, math.MaxFloat64, math.Inf(1)}
	for i, v := range vals {
		if got := normOf(orderKey(v)); math.Float64bits(got) != math.Float64bits(v) {
			t.Errorf("normOf(orderKey(%g)) = %g", v, got)
		}
		if i > 0 && orderKey(vals[i-1]) >= orderKey(v) {
			t.Errorf("orderKey(%g) is not below orderKey(%g)", vals[i-1], v)
		}
	}
	if k := orderKey(math.NaN()); k <= orderKey(math.Inf(1)) && k >= orderKey(math.Inf(-1)) {
		t.Error("a NaN's key lies among the numbers")
	}
}

// fold against a float reference, on rows that start inside an atom and on
// segments that take its slow path (a negative value, −0 or a NaN present).
func TestFoldMatchesFloatMaximum(t *testing.T) {
	g, err := grid.New(32, grid.DefaultAtomSide, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	a := g.AtomSide
	s := slabScan{g: g, spread: make([]int, slabSide*a)}
	for o := range s.spread {
		s.spread[o] = int(morton.Encode(uint32(o/a), 0, 0))
	}
	rng := rand.New(rand.NewSource(8))
	special := []float64{math.Copysign(0, -1), -3, math.Inf(-1), math.Inf(1), math.NaN(), -math.NaN()}
	for trial := 0; trial < 400; trial++ {
		x0 := rng.Intn(slabSide * a)
		norms := make([]float64, 1+rng.Intn(slabSide*a-x0))
		for i := range norms {
			norms[i] = rng.Float64()
			if trial%2 == 1 && rng.Intn(6) == 0 {
				norms[i] = special[rng.Intn(len(special))]
			}
		}
		for i := range s.maxes {
			s.maxes[i] = orderKey(math.Inf(-1))
		}
		iyz := s.spread[rng.Intn(len(s.spread))]<<1 | s.spread[rng.Intn(len(s.spread))]<<2
		rowMax := normOf(s.fold(norms, x0, a-x0%a, iyz))

		want := make(map[int]float64)
		wantRow, nan := math.Inf(-1), false
		for i, v := range norms {
			atom := iyz | s.spread[x0+i]
			if _, ok := want[atom]; !ok {
				want[atom] = math.Inf(-1)
			}
			if v != v { //lint:allow floateq NaN test
				nan = true
				continue // a NaN may or may not surface; checked below
			}
			want[atom] = math.Max(want[atom], v)
			wantRow = math.Max(wantRow, v)
		}
		for i, k := range s.maxes {
			got := normOf(k)
			w, touched := want[i]
			if !touched {
				w = math.Inf(-1)
			}
			// With a NaN in the row a maximum may come out NaN (which never
			// prunes), but it must never understate the numbers.
			exact := got == w || (got == 0 && w == 0) //lint:allow floateq exact maximum; the zeros tie
			if (!nan || !touched) && !exact || got < w {
				t.Fatalf("trial %d: atom %d maximum %v, want %v (row %v from %d)", trial, i, got, w, norms, x0)
			}
		}
		if rowMax == rowMax && rowMax < wantRow { //lint:allow floateq NaN test
			t.Fatalf("trial %d: row maximum %v, want at least %v", trial, rowMax, wantRow)
		}
	}
}

// The byte budget evicts whole keys, least recently used first.
func TestSynopsisBudgetEviction(t *testing.T) {
	g, err := grid.New(32, grid.DefaultAtomSide, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	s := newSynopsis(g)
	s.budget = 3 * synSlotBytes * g.NumAtoms() // three keys
	before := mSynopsisBytes.Value()
	key := func(i int) synKey { return synKey{"f/fd4", i} }
	for i := 0; i < 3; i++ {
		s.open(key(i)).learn(0, float64(i))
	}
	s.open(key(0)) // touch: key 1 is now the oldest
	s.open(key(3))
	for i, want := range []bool{true, false, true, true} {
		s.mu.Lock()
		_, ok := s.entries[key(i)]
		s.mu.Unlock()
		if ok != want {
			t.Errorf("key %d resident = %v, want %v", i, ok, want)
		}
	}
	if m, ok := s.open(key(0)).known(0); !ok || m != 0 { //lint:allow floateq the stored bits come back unchanged
		t.Errorf("key 0 lost what it had learned: %v %v", m, ok)
	}
	if _, ok := s.open(key(1)).known(0); ok {
		t.Error("an evicted key came back with its contents")
	}
	if got := mSynopsisBytes.Value() - before; got != int64(s.budget) {
		t.Errorf("gauge moved by %d bytes, the table holds %d", got, s.budget)
	}
	s.drop(key(0))
	s.drop(key(0))
	if got := mSynopsisBytes.Value() - before; got != int64(s.budget-synSlotBytes*g.NumAtoms()) {
		t.Errorf("gauge after a drop: %d", got)
	}
}

// Concurrent scans learn and consult one key at once: racing writers store
// the same bits, readers take no lock. Run under -race.
func TestSynopsisConcurrentScansOneKey(t *testing.T) {
	const gridN = 32
	raws := map[string]*field.Block{derived.Velocity: gusty(gridN, 3, 3)}
	n := clusterOver(t, gridN, raws, 1, 2)[0]
	twin := clusterOver(t, gridN, raws, 1, 1)[0]
	twin.synopsis = nil
	top, err := twin.GetTopK(context.Background(), nil, query.TopK{Dataset: "noise", Field: derived.Vorticity, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				q := query.Threshold{
					Dataset: "noise", Field: derived.Vorticity, Limit: 1 << 20,
					Threshold: float64(top.Points[0].Value) * []float64{0.5, 0.1, 0.02}[(w+i)%3],
				}
				got, err := n.GetThreshold(context.Background(), nil, q)
				if err != nil {
					t.Error(err)
					return
				}
				want, err := twin.GetThreshold(context.Background(), nil, q)
				if err != nil {
					t.Error(err)
					return
				}
				if len(got.Points) != len(want.Points) {
					t.Errorf("worker %d query %d: %d points, twin %d", w, i, len(got.Points), len(want.Points))
					return
				}
				for j, p := range want.Points {
					if g := got.Points[j]; g.Code != p.Code || math.Float32bits(g.Value) != math.Float32bits(p.Value) {
						t.Errorf("worker %d query %d: point %d is %v, twin %v", w, i, j, g, p)
						return
					}
				}
				if w == 0 && i%2 == 1 {
					if err := n.DropCacheEntry(context.Background(), derived.Vorticity, 4, 0); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
