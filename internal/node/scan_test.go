package node

import (
	"context"
	"errors"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/turbdb/turbdb/internal/cache"
	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/field"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/obs"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/stencil"
)

// memberView is what the scan contract pins of one member's answer.
type memberView struct {
	fromCache          bool
	shared, scansSaved int
	// counts are Breakdown's AtomsRead, HaloAtoms, PointsExamined,
	// AtomsSkipped and AtomsPruned.
	counts [5]int
	// timed names the Breakdown phases that took time: l(ookup), i(o),
	// c(ompute), u(pdate).
	timed string
	// tooMany marks a member that failed with *query.ErrTooManyPoints.
	tooMany bool
}

func viewOf(bd Breakdown) memberView {
	v := memberView{counts: [5]int{bd.AtomsRead, bd.HaloAtoms, bd.PointsExamined, bd.AtomsSkipped, bd.AtomsPruned}}
	for i, d := range []bool{bd.CacheLookup != 0, bd.IO != 0, bd.Compute != 0, bd.CacheUpdate != 0} {
		if d {
			v.timed += string("licu"[i])
		}
	}
	return v
}

// tooManyView is a member that failed over its point limit; any other
// failure is the test's.
func tooManyView(t *testing.T, err error, limit int) memberView {
	t.Helper()
	var tooMany *query.ErrTooManyPoints
	if !errors.As(err, &tooMany) || tooMany.Limit != limit || tooMany.Seen <= limit {
		t.Fatalf("member error %v, want more than %d points", err, limit)
	}
	return memberView{tooMany: true}
}

// What every node entry point reports, member by member — FromCache,
// Shared, ScansSaved, the batch's AtomsScanned, every Breakdown count, which
// phases took time, typed member errors and the node spans of the call —
// for a solo threshold, a three-member batch, a PDF and a top-k under no
// cache, a cold cache and a warm one. Node 0 of two, two workers: the halo
// comes from the peer.
func TestScanContract(t *testing.T) {
	const gridN = 32
	raws := map[string]*field.Block{derived.Velocity: gusty(gridN, 3, 11)}
	probe := clusterOver(t, gridN, raws, 1, 1)[0]
	top, err := probe.GetTopK(context.Background(), nil, query.TopK{Dataset: "noise", Field: derived.Vorticity, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	peak := float64(top.Points[0].Value)
	th := func(share float64, box grid.Box, limit int) query.Threshold {
		return query.Threshold{Dataset: "noise", Field: derived.Vorticity, Threshold: share * peak, Box: box, Limit: limit}
	}
	all := grid.Box{Hi: grid.Point{X: gridN, Y: gridN, Z: gridN}}
	corner := grid.Box{Lo: grid.Point{X: 4, Y: 4, Z: 0}, Hi: grid.Point{X: 24, Y: 20, Z: 12}}
	solo := th(0.2, all, 1<<20)
	// Member 0 is solo again; member 1 goes over its limit in the pass.
	batch := []query.Threshold{solo, th(0.02, all, 5), th(0.05, corner, 1<<20)}
	pdf := query.PDF{Dataset: "noise", Field: derived.Vorticity, Bins: 8, Width: peak / 8}
	topK := query.TopK{Dataset: "noise", Field: derived.Vorticity, K: 10}

	type outcome struct {
		members []memberView
		scanned int // the batch's AtomsScanned
	}
	runSolo := func(ctx context.Context, n *Node) (outcome, error) {
		r, err := n.GetThreshold(ctx, nil, solo)
		if err != nil {
			return outcome{}, err
		}
		v := viewOf(r.Breakdown)
		v.fromCache, v.shared, v.scansSaved = r.FromCache, r.Shared, r.ScansSaved
		return outcome{members: []memberView{v}}, nil
	}
	runBatch := func(qs []query.Threshold) func(t *testing.T, ctx context.Context, n *Node) (outcome, error) {
		return func(t *testing.T, ctx context.Context, n *Node) (outcome, error) {
			r, err := n.GetThresholdBatch(ctx, nil, qs)
			if err != nil {
				return outcome{}, err
			}
			out := outcome{scanned: r.AtomsScanned}
			for i, res := range r.Results {
				if (res == nil) == (r.Errs[i] == nil) {
					t.Fatalf("member %d: result %v, error %v", i, res, r.Errs[i])
				}
				if r.Errs[i] != nil {
					out.members = append(out.members, tooManyView(t, r.Errs[i], qs[i].Limit))
					continue
				}
				v := viewOf(res.Breakdown)
				v.fromCache, v.shared, v.scansSaved = res.FromCache, res.Shared, res.ScansSaved
				out.members = append(out.members, v)
			}
			return out, nil
		}
	}
	runPDF := func(_ *testing.T, ctx context.Context, n *Node) (outcome, error) {
		r, err := n.GetPDF(ctx, nil, pdf)
		if err != nil {
			return outcome{}, err
		}
		v := viewOf(r.Breakdown)
		v.fromCache = r.FromCache
		return outcome{members: []memberView{v}}, nil
	}
	runTopK := func(_ *testing.T, ctx context.Context, n *Node) (outcome, error) {
		r, err := n.GetTopK(ctx, nil, topK)
		if err != nil {
			return outcome{}, err
		}
		return outcome{members: []memberView{viewOf(r.Breakdown)}}, nil
	}
	warmSolo := func(n *Node) error { _, err := n.GetThreshold(context.Background(), nil, solo); return err }
	warmPDF := func(n *Node) error { _, err := n.GetPDF(context.Background(), nil, pdf); return err }
	warmTopK := func(n *Node) error { _, err := n.GetTopK(context.Background(), nil, topK); return err }
	overLimit := solo
	overLimit.Limit = 1

	noCache, cached := (*cache.Config)(nil), &cache.Config{}
	// Node 0 of two: a whole-domain scan reads its 32 atoms and fetches the
	// 32 halo atoms of node 1's faces above and, wrapped, below.
	scan := [5]int{32, 32, gridN * gridN * gridN / 2, 0, 0}
	// The warm rows prune, and a pruned scan reads the face-band cover of
	// the atoms it keeps: the pins are checked against coverOf over the
	// atoms brute-force maxima say the synopsis keeps.
	batchWarm := [5]int{32, 24, 12288, 0, 8}
	topKWarm := [5]int{24, 8, 4096, 0, 24}
	checkWarmPins(t, clusterOver(t, gridN, raws, 2, 1)[0], raws, peak, map[string][5]int{"batch": batchWarm, "topk": topKWarm})
	for _, tc := range []struct {
		name    string
		cache   *cache.Config
		warm    func(*Node) error // runs untraced before the call
		call    func(*testing.T, context.Context, *Node) (outcome, error)
		want    []memberView
		scanned int
		spans   string
		// walk marks a top-k, whose walk may leave atoms out: its points
		// examined plus the points of the atoms it pruned must be the
		// whole scan's.
		walk bool
	}{
		{
			name: "threshold/no-cache", cache: noCache,
			call:  func(_ *testing.T, ctx context.Context, n *Node) (outcome, error) { return runSolo(ctx, n) },
			want:  []memberView{{counts: scan, timed: "ic"}},
			spans: "scan_io halo_fetch halo_fetch scan_compute",
		},
		{
			name: "threshold/cold", cache: cached,
			call:  func(_ *testing.T, ctx context.Context, n *Node) (outcome, error) { return runSolo(ctx, n) },
			want:  []memberView{{counts: scan, timed: "licu"}},
			spans: "cache_lookup scan_io halo_fetch halo_fetch scan_compute cache_update",
		},
		{
			name: "threshold/warm", cache: cached, warm: warmSolo,
			call:  func(_ *testing.T, ctx context.Context, n *Node) (outcome, error) { return runSolo(ctx, n) },
			want:  []memberView{{fromCache: true, timed: "l"}},
			spans: "cache_lookup",
		},
		{
			name: "threshold/warm-over-limit", cache: cached, warm: warmSolo,
			call: func(t *testing.T, ctx context.Context, n *Node) (outcome, error) {
				_, err := n.GetThreshold(ctx, nil, overLimit)
				return outcome{members: []memberView{tooManyView(t, err, overLimit.Limit)}}, nil
			},
			want:  []memberView{{tooMany: true}},
			spans: "cache_lookup",
		},
		{
			name: "batch/no-cache", cache: noCache, call: runBatch(batch),
			want: []memberView{
				{shared: 3, counts: scan, timed: "ic"},
				{tooMany: true},
				{shared: 3, scansSaved: 18, counts: scan, timed: "ic"},
			},
			scanned: 32,
			spans:   "scan_io halo_fetch halo_fetch scan_compute",
		},
		{
			name: "batch/cold", cache: cached, call: runBatch(batch),
			want: []memberView{
				{shared: 3, counts: scan, timed: "licu"},
				{tooMany: true},
				{shared: 3, scansSaved: 18, counts: scan, timed: "licu"},
			},
			scanned: 32,
			spans:   "cache_lookup cache_lookup cache_lookup scan_io halo_fetch halo_fetch scan_compute cache_update cache_update",
		},
		{
			// Member 0 hits the cache over its limit; the solo scan that
			// warmed it taught the synopsis every atom, so the pass prunes.
			name: "batch/warm", cache: cached, warm: warmSolo,
			call: runBatch([]query.Threshold{overLimit, batch[1], batch[2]}),
			want: []memberView{
				{tooMany: true},
				{tooMany: true},
				{shared: 2, scansSaved: 10, counts: batchWarm, timed: "licu"},
			},
			scanned: 24,
			spans:   "cache_lookup cache_lookup cache_lookup scan_io halo_fetch halo_fetch scan_compute cache_update",
		},
		{
			name: "pdf/no-cache", cache: noCache, call: runPDF,
			want:  []memberView{{counts: scan, timed: "ic"}},
			spans: "scan_io halo_fetch halo_fetch scan_compute",
		},
		// A cached node probes and stores a PDF like a threshold, and a
		// repeated PDF is a hit.
		{
			name: "pdf/cold", cache: cached, call: runPDF,
			want:  []memberView{{counts: scan, timed: "licu"}},
			spans: "cache_lookup scan_io halo_fetch halo_fetch scan_compute cache_update",
		},
		{
			name: "pdf/warm", cache: cached, warm: warmPDF, call: runPDF,
			want:  []memberView{{fromCache: true, timed: "l"}},
			spans: "cache_lookup",
		},
		{
			name: "topk/no-cache", cache: noCache, call: runTopK, walk: true,
			want:  []memberView{{counts: scan, timed: "ic"}},
			spans: "scan_io halo_fetch halo_fetch scan_compute",
		},
		{
			name: "topk/cold", cache: cached, call: runTopK, walk: true,
			want:  []memberView{{counts: scan, timed: "ic"}},
			spans: "scan_io halo_fetch halo_fetch scan_compute",
		},
		{
			// The top-k that warmed the node taught its synopsis every atom:
			// the walk's first round takes the three atoms of largest maximum
			// and its second the five the k-th value does not outrank.
			name: "topk/warm", cache: cached, warm: warmTopK, call: runTopK, walk: true,
			want:  []memberView{{counts: topKWarm, timed: "ic"}},
			spans: "scan_io halo_fetch halo_fetch scan_compute scan_io halo_fetch halo_fetch scan_compute",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := clusterOver(t, gridN, raws, 2, 2)[0]
			if tc.cache != nil {
				c, err := cache.New(*tc.cache)
				if err != nil {
					t.Fatal(err)
				}
				n.cache = c
			}
			if tc.warm != nil {
				if err := tc.warm(n); err != nil {
					t.Fatal(err)
				}
			}
			tr := obs.NewTrace("contract", nil)
			got, err := tc.call(t, obs.ContextWithTrace(context.Background(), tr), n)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.members) != len(tc.want) {
				t.Fatalf("%d members answered, want %d", len(got.members), len(tc.want))
			}
			for i, w := range tc.want {
				if got.members[i] != w {
					t.Errorf("member %d: %+v, want %+v", i, got.members[i], w)
				}
				if c := got.members[i].counts; tc.walk && c[2]+c[4]*n.Grid().PointsPerAtom() != scan[2] {
					t.Errorf("member %d: examined %d points and pruned %d atoms of a %d-point scan", i, c[2], c[4], scan[2])
				}
			}
			if got.scanned != tc.scanned {
				t.Errorf("AtomsScanned %d, want %d", got.scanned, tc.scanned)
			}
			var names []string
			for _, sp := range tr.Spans() {
				names = append(names, sp.Name)
			}
			if spans := strings.Join(names, " "); spans != tc.spans {
				t.Errorf("spans %q, want %q", spans, tc.spans)
			}
		})
	}
}

// checkWarmPins holds TestScanContract's warm pins to what brute force
// predicts for node n (node 0 of two) from the vorticity at order 4: the
// batch keeps every atom whose maximum is not below its lowest live
// threshold, 0.02·peak; the top-10 walk keeps the ⌈10/4⌉ atoms of largest
// maximum and every other atom the 10th value of their points does not
// outrank (DESIGN.md §4 decision 16). Each scan reads coverOf its atoms.
func checkWarmPins(t *testing.T, n *Node, raws map[string]*field.Block, peak float64, pins map[string][5]int) {
	t.Helper()
	g := n.Grid()
	f, err := derived.Standard().Lookup(derived.Vorticity)
	if err != nil {
		t.Fatal(err)
	}
	norms := oracleNorms(t, g, raws, f, query.DefaultFDOrder)
	codes, err := n.scanAtomsCovering(g.Domain(), nil)
	if err != nil {
		t.Fatal(err)
	}
	pointsOf := func(c morton.Code) []query.ResultPoint {
		var pts []query.ResultPoint
		b := g.AtomBox(c)
		var p grid.Point
		for p.Z = b.Lo.Z; p.Z < b.Hi.Z; p.Z++ {
			for p.Y = b.Lo.Y; p.Y < b.Hi.Y; p.Y++ {
				for p.X = b.Lo.X; p.X < b.Hi.X; p.X++ {
					pts = append(pts, query.PointFor(p, norms[(p.Z*g.N+p.Y)*g.N+p.X]))
				}
			}
		}
		return pts
	}
	maxima := make([]atomMax, len(codes))
	for i, c := range codes {
		maxima[i] = atomMax{c, math.Inf(-1)}
		for _, pt := range pointsOf(c) {
			maxima[i].max = max(maxima[i].max, float64(pt.Value))
		}
	}
	kept := map[string][]morton.Code{}
	for _, a := range maxima {
		if !(a.max < 0.02*peak) {
			kept["batch"] = append(kept["batch"], a.code)
		}
	}
	const k = 10
	lead := (k + topKLead - 1) / topKLead
	sort.SliceStable(maxima, func(i, j int) bool { return maxima[i].max > maxima[j].max })
	var first []query.ResultPoint
	for _, a := range maxima[:lead] {
		kept["topk"] = append(kept["topk"], a.code)
		first = append(first, pointsOf(a.code)...)
	}
	sort.Slice(first, func(i, j int) bool { return query.RanksBefore(first[i], first[j]) })
	for _, a := range maxima[lead:] {
		if !query.Outranked(a.max, first[k-1]) {
			kept["topk"] = append(kept["topk"], a.code)
		}
	}
	hw := stencil.MustGet(query.DefaultFDOrder).HalfWidth
	for name, pin := range pins {
		read, halo := coverCounts(n, kept[name], g.Domain(), hw, f.AxisReach)
		atoms := len(kept[name])
		if want := [5]int{read, halo, atoms * g.PointsPerAtom(), 0, len(codes) - atoms}; pin != want {
			t.Errorf("%s/warm pinned %v, brute force and the cover predicate say %v", name, pin, want)
		}
	}
}

// scanAtomsCovering filters a box's atoms before it sorts them: it returns
// exactly the sorted atoms of the box the node owns, or under replica
// routing those in the scan ranges, and a scan range the node does not hold
// fails the plan rather than answering from missing data.
func TestScanAtomsCoveringKeepsOwnedOrRouted(t *testing.T) {
	const gridN = 32
	nodes := clusterOver(t, gridN, map[string]*field.Block{derived.Velocity: noise(gridN, 3, 8)}, 2, 1)
	n := nodes[0]
	g := n.Grid()
	owned := n.store.Owned()
	boxes := []grid.Box{g.Domain(), {Lo: grid.Point{X: -3, Y: 5, Z: 30}, Hi: grid.Point{X: 9, Y: 20, Z: 40}}}
	routes := [][]morton.Range{nil, {{Lo: owned.Lo + 3, Hi: owned.Lo + 9}, {Lo: owned.Hi - 5, Hi: owned.Hi}}}
	for _, b := range boxes {
		for _, scan := range routes {
			all, err := g.AtomsCovering(b)
			if err != nil {
				t.Fatal(err)
			}
			var want []morton.Code
			for _, c := range all {
				in := owned.Contains(c)
				if scan != nil {
					in = scan[0].Contains(c) || scan[1].Contains(c)
				}
				if in {
					want = append(want, c)
				}
			}
			got, err := n.scanAtomsCovering(b, scan)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 || !slices.Equal(got, want) {
				t.Errorf("box %v, scan %v: %v, want %v (not empty)", b, scan, got, want)
			}
		}
	}
	other := nodes[1].store.Owned()
	if _, err := n.scanAtomsCovering(g.Domain(), []morton.Range{other}); err == nil || !strings.Contains(err.Error(), "outside held ranges") {
		t.Errorf("a scan range held by the other node: err = %v, want a routing failure", err)
	}
}
