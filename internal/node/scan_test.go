package node

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/turbdb/turbdb/internal/cache"
	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/field"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/obs"
	"github.com/turbdb/turbdb/internal/query"
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
		return outcome{members: []memberView{viewOf(r.Breakdown)}}, nil
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

	noCache := (*cache.Config)(nil)
	plain, agg := &cache.Config{}, &cache.Config{AggEntries: 16}
	// Node 0 of two: a whole-domain scan reads its 32 atoms and fetches the
	// 32 halo atoms of node 1's faces above and, wrapped, below.
	scan := [5]int{32, 32, gridN * gridN * gridN / 2, 0, 0}
	for _, tc := range []struct {
		name    string
		cache   *cache.Config
		warm    func(*Node) error // runs untraced before the call
		call    func(*testing.T, context.Context, *Node) (outcome, error)
		want    []memberView
		scanned int
		spans   string
	}{
		{
			name: "threshold/no-cache", cache: noCache,
			call:  func(_ *testing.T, ctx context.Context, n *Node) (outcome, error) { return runSolo(ctx, n) },
			want:  []memberView{{counts: scan, timed: "ic"}},
			spans: "scan_io halo_fetch halo_fetch scan_compute",
		},
		{
			name: "threshold/cold", cache: plain,
			call:  func(_ *testing.T, ctx context.Context, n *Node) (outcome, error) { return runSolo(ctx, n) },
			want:  []memberView{{counts: scan, timed: "licu"}},
			spans: "cache_lookup scan_io halo_fetch halo_fetch scan_compute cache_update",
		},
		{
			name: "threshold/warm", cache: plain, warm: warmSolo,
			call:  func(_ *testing.T, ctx context.Context, n *Node) (outcome, error) { return runSolo(ctx, n) },
			want:  []memberView{{fromCache: true, timed: "l"}},
			spans: "cache_lookup",
		},
		{
			name: "threshold/warm-over-limit", cache: plain, warm: warmSolo,
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
			name: "batch/cold", cache: plain, call: runBatch(batch),
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
			name: "batch/warm", cache: plain, warm: warmSolo,
			call: runBatch([]query.Threshold{overLimit, batch[1], batch[2]}),
			want: []memberView{
				{tooMany: true},
				{tooMany: true},
				{shared: 2, scansSaved: 10, counts: [5]int{32, 32, 12288, 0, 8}, timed: "licu"},
			},
			scanned: 24,
			spans:   "cache_lookup cache_lookup cache_lookup scan_io halo_fetch halo_fetch scan_compute cache_update",
		},
		{
			name: "pdf/no-cache", cache: noCache, call: runPDF,
			want:  []memberView{{counts: scan, timed: "ic"}},
			spans: "scan_io halo_fetch halo_fetch scan_compute",
		},
		// A cached node probes and stores a PDF like a threshold: a lookup
		// and an update each time, whether or not the cache keeps aggregates.
		{
			name: "pdf/cold", cache: plain, call: runPDF,
			want:  []memberView{{counts: scan, timed: "licu"}},
			spans: "cache_lookup scan_io halo_fetch halo_fetch scan_compute cache_update",
		},
		{
			name: "pdf/warm", cache: plain, warm: warmPDF, call: runPDF,
			want:  []memberView{{counts: scan, timed: "licu"}},
			spans: "cache_lookup scan_io halo_fetch halo_fetch scan_compute cache_update",
		},
		{
			name: "pdf/cold-agg", cache: agg, call: runPDF,
			want:  []memberView{{counts: scan, timed: "licu"}},
			spans: "cache_lookup scan_io halo_fetch halo_fetch scan_compute cache_update",
		},
		{
			name: "pdf/warm-agg", cache: agg, warm: warmPDF, call: runPDF,
			want:  []memberView{{timed: "l"}},
			spans: "cache_lookup",
		},
		{
			name: "topk/no-cache", cache: noCache, call: runTopK,
			want:  []memberView{{counts: scan, timed: "ic"}},
			spans: "scan_io halo_fetch halo_fetch scan_compute",
		},
		{
			name: "topk/cold", cache: plain, call: runTopK,
			want:  []memberView{{counts: scan, timed: "ic"}},
			spans: "scan_io halo_fetch halo_fetch scan_compute",
		},
		{
			name: "topk/warm", cache: agg, warm: warmTopK, call: runTopK,
			want:  []memberView{{counts: scan, timed: "ic"}},
			spans: "scan_io halo_fetch halo_fetch scan_compute",
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
