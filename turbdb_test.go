package turbdb

import (
	"errors"
	"math"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func openTest(t testing.TB, cfg Config) *DB {
	t.Helper()
	if cfg.GridN == 0 {
		cfg.GridN = 16
	}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestOpenDefaults(t *testing.T) {
	db := openTest(t, Config{})
	if db.Dataset() != "isotropic" {
		t.Errorf("dataset = %s", db.Dataset())
	}
	if db.GridN() != 16 || db.Steps() != 1 || db.Nodes() != 4 {
		t.Errorf("geometry: N=%d steps=%d nodes=%d", db.GridN(), db.Steps(), db.Nodes())
	}
	fields := db.Fields()
	for _, f := range fields {
		if f == FieldMagnetic || f == FieldCurrent {
			t.Error("isotropic dataset lists MHD fields")
		}
	}
	mdb := openTest(t, Config{Kind: MHD})
	found := false
	for _, f := range mdb.Fields() {
		if f == FieldCurrent {
			found = true
		}
	}
	if !found {
		t.Error("MHD dataset missing current field")
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{GridN: 13}); err == nil {
		t.Error("accepted non-pow2 grid")
	}
	if _, err := Open(Config{GridN: 16, Nodes: -1}); err == nil {
		t.Error("accepted negative nodes")
	}
}

func TestThresholdQuery(t *testing.T) {
	db := openTest(t, Config{Kind: MHD, Cache: true, Seed: 3})
	rms, err := db.NormRMS(FieldVorticity, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rms <= 0 {
		t.Fatalf("rms = %g", rms)
	}
	pts, stats, err := db.Threshold(ThresholdQuery{
		Field: FieldVorticity, Threshold: 1.5 * rms,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("no points at 1.5×RMS")
	}
	if stats.Points != len(pts) || stats.Nodes != 4 {
		t.Errorf("stats = %+v", stats)
	}
	for _, p := range pts {
		if p.Value < 1.5*rms {
			t.Fatalf("point below threshold: %+v", p)
		}
		if p.X < 0 || p.X >= 16 || p.Y < 0 || p.Y >= 16 || p.Z < 0 || p.Z >= 16 {
			t.Fatalf("point outside domain: %+v", p)
		}
	}
	// cache hit on repeat
	_, stats2, err := db.Threshold(ThresholdQuery{
		Field: FieldVorticity, Threshold: 1.5 * rms,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats2.FullCacheHit() {
		t.Errorf("repeat not a full cache hit: %+v", stats2)
	}
	hits, misses, stores, _ := db.CacheStats()
	if hits == 0 || misses == 0 || stores == 0 {
		t.Errorf("cache stats: %d/%d/%d", hits, misses, stores)
	}
	// drop cache → miss again
	if err := db.DropCache(FieldVorticity, 0, 0); err != nil {
		t.Fatal(err)
	}
	_, stats3, _ := db.Threshold(ThresholdQuery{Field: FieldVorticity, Threshold: 1.5 * rms})
	if stats3.FullCacheHit() {
		t.Error("hit after DropCache")
	}
}

func TestThresholdTooLow(t *testing.T) {
	db := openTest(t, Config{})
	_, _, err := db.Threshold(ThresholdQuery{Field: FieldVelocity, Threshold: 0, Limit: 10})
	if !errors.Is(err, ErrThresholdTooLow) {
		t.Fatalf("err = %v", err)
	}
}

func TestRegionQuery(t *testing.T) {
	db := openTest(t, Config{Seed: 5})
	region := Box{Lo: [3]int{0, 0, 0}, Hi: [3]int{8, 8, 8}}
	pts, _, err := db.Threshold(ThresholdQuery{
		Field: FieldPressure, Threshold: 0.5, Region: region,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.X >= 8 || p.Y >= 8 || p.Z >= 8 {
			t.Fatalf("point outside region: %+v", p)
		}
	}
}

func TestPDFAndQuantile(t *testing.T) {
	db := openTest(t, Config{Seed: 7})
	counts, _, err := db.PDF(PDFQuery{Field: FieldVelocity, Bins: 10, Width: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != 16*16*16 {
		t.Errorf("PDF total = %d", total)
	}
	// quantile consistency: ~1% of points should lie above the 99% quantile
	q99, err := db.NormQuantile(FieldVelocity, 0, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	pts, _, err := db.Threshold(ThresholdQuery{Field: FieldVelocity, Threshold: q99})
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(len(pts)) / float64(total)
	if math.Abs(frac-0.01) > 0.005 {
		t.Errorf("fraction above q99 = %g, want ≈ 0.01", frac)
	}
}

func TestTopKQuery(t *testing.T) {
	db := openTest(t, Config{Seed: 9})
	top, _, err := db.TopK(TopKQuery{Field: FieldQCriterion, K: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 20 {
		t.Fatalf("got %d", len(top))
	}
	if !sort.SliceIsSorted(top, func(i, j int) bool { return top[i].Value > top[j].Value }) {
		t.Error("top-k not descending")
	}
}

func TestSimulatedDB(t *testing.T) {
	db := openTest(t, Config{Kind: MHD, GridN: 32, Cache: true, Simulate: true, Processes: 4})
	q99, err := db.NormQuantile(FieldCurrent, 0, 0.995)
	if err != nil {
		t.Fatal(err)
	}
	_, miss, err := db.Threshold(ThresholdQuery{Field: FieldCurrent, Threshold: q99})
	if err != nil {
		t.Fatal(err)
	}
	if miss.IO <= 0 || miss.Compute <= 0 {
		t.Errorf("simulated breakdown empty: %+v", miss)
	}
	_, hit, err := db.Threshold(ThresholdQuery{Field: FieldCurrent, Threshold: q99})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.FullCacheHit() {
		t.Fatal("no cache hit in sim mode")
	}
	if hit.Total >= miss.Total {
		t.Errorf("hit %v not faster than miss %v", hit.Total, miss.Total)
	}
}

func TestFindClustersAPI(t *testing.T) {
	db := openTest(t, Config{Seed: 11, Steps: 3})
	var all []TimePoint
	for step := 0; step < 3; step++ {
		q98, err := db.NormQuantile(FieldVorticity, step, 0.98)
		if err != nil {
			t.Fatal(err)
		}
		pts, _, err := db.Threshold(ThresholdQuery{
			Field: FieldVorticity, Timestep: step, Threshold: q98,
		})
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, TimePointsOf(pts, step)...)
	}
	if len(all) == 0 {
		t.Fatal("no points to cluster")
	}
	clusters, err := FindClusters(all, FoFParams{LinkLength: 2, TimeLink: 1, Periodic: db.GridN()})
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) == 0 {
		t.Fatal("no clusters")
	}
	total := 0
	for _, c := range clusters {
		total += c.Size()
	}
	if total != len(all) {
		t.Errorf("clusters cover %d of %d points", total, len(all))
	}
	// sorted by peak
	for i := 1; i < len(clusters); i++ {
		if clusters[i].Peak.Value > clusters[i-1].Peak.Value {
			t.Fatal("clusters not sorted by peak")
		}
	}
	if _, err := FindClusters(all, FoFParams{}); err == nil {
		t.Error("zero link length accepted")
	}
}

func TestSetProcesses(t *testing.T) {
	db := openTest(t, Config{})
	if err := db.SetProcesses(4); err != nil {
		t.Fatal(err)
	}
	if err := db.SetProcesses(0); err == nil {
		t.Error("SetProcesses(0) accepted")
	}
}

func TestOpenRemote(t *testing.T) {
	db := openTest(t, Config{Kind: MHD, Seed: 13})
	srv := httptest.NewServer(db.Handler())
	defer srv.Close()

	rdb, err := OpenRemote(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if rdb.Dataset() != "mhd" || rdb.GridN() != 16 {
		t.Errorf("remote info: %s %d", rdb.Dataset(), rdb.GridN())
	}
	localPts, _, err := db.Threshold(ThresholdQuery{Field: FieldCurrent, Threshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	remotePts, _, err := rdb.Threshold(ThresholdQuery{Field: FieldCurrent, Threshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(remotePts) != len(localPts) {
		t.Fatalf("remote %d points vs local %d", len(remotePts), len(localPts))
	}
	counts, err := rdb.PDF(PDFQuery{Field: FieldMagnetic, Bins: 4, Width: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 4 {
		t.Errorf("remote PDF bins = %d", len(counts))
	}
	top, err := rdb.TopK(TopKQuery{Field: FieldCurrent, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 3 {
		t.Errorf("remote topk = %d", len(top))
	}
	// A traced query over the frame protocol: same points, and the span
	// tree comes back (it rides a spans frame, not a JSON fallback).
	fdb, err := OpenRemote(srv.URL, WithProtocol("frame"))
	if err != nil {
		t.Fatal(err)
	}
	tracedPts, st, err := fdb.Threshold(ThresholdQuery{Field: FieldCurrent, Threshold: 2, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tracedPts, remotePts) {
		t.Errorf("traced frame query returned %d points, JSON %d", len(tracedPts), len(remotePts))
	}
	if !strings.Contains(st.TraceTree, "threshold") {
		t.Errorf("traced frame query returned no span tree: %q", st.TraceTree)
	}
	if _, err := OpenRemote("http://127.0.0.1:1"); err == nil {
		t.Error("OpenRemote to dead endpoint succeeded")
	}
}

func TestRegisterField(t *testing.T) {
	db := openTest(t, Config{Kind: MHD, Cache: true, Seed: 17})
	// enstrophy = ‖∇×v‖² — must relate to the built-in vorticity by squaring
	if err := db.RegisterField("enstrophy", "dot(curl(velocity), curl(velocity))"); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range db.Fields() {
		if f == "enstrophy" {
			found = true
		}
	}
	if !found {
		t.Error("registered field not listed")
	}
	rms, err := db.NormRMS(FieldVorticity, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := 2 * rms
	vort, _, err := db.Threshold(ThresholdQuery{Field: FieldVorticity, Threshold: k})
	if err != nil {
		t.Fatal(err)
	}
	ens, _, err := db.Threshold(ThresholdQuery{Field: "enstrophy", Threshold: k * k})
	if err != nil {
		t.Fatal(err)
	}
	if len(ens) != len(vort) {
		t.Fatalf("enstrophy ≥ k² found %d points, vorticity ≥ k found %d", len(ens), len(vort))
	}
	for i := range ens {
		if ens[i].X != vort[i].X || ens[i].Y != vort[i].Y || ens[i].Z != vort[i].Z {
			t.Fatalf("point %d differs", i)
		}
	}
	// custom-field results are cached like built-ins
	_, stats, err := db.Threshold(ThresholdQuery{Field: "enstrophy", Threshold: k * k})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.FullCacheHit() {
		t.Error("custom field repeat not a cache hit")
	}
	// nested differential operators work end to end (wider halo exchange)
	if err := db.RegisterField("lapp", "abs(div(grad(pressure)))"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Threshold(ThresholdQuery{Field: "lapp", Threshold: 1e9}); err != nil {
		t.Fatalf("laplacian query: %v", err)
	}
	// bad expressions are rejected
	if err := db.RegisterField("bad", "curl(pressure)"); err == nil {
		t.Error("curl(pressure) accepted")
	}
	// isotropic datasets must not see the magnetic field
	iso := openTest(t, Config{Seed: 17})
	if err := iso.RegisterField("j", "curl(magnetic)"); err == nil {
		t.Error("magnetic reference accepted on isotropic dataset")
	}
}

// Cross-field expressions work end to end through the cluster: the
// cross-helicity density reads two raw fields with one query.
func TestRegisterCrossFieldExpression(t *testing.T) {
	db := openTest(t, Config{Kind: MHD, Cache: true, Seed: 23})
	if err := db.RegisterField("crosshel", "abs(dot(velocity, magnetic))"); err != nil {
		t.Fatal(err)
	}
	q99, err := db.NormQuantile("crosshel", 0, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	pts, stats, err := db.Threshold(ThresholdQuery{Field: "crosshel", Threshold: q99})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("no cross-helicity points")
	}
	if stats.AtomsRead == 0 {
		t.Error("no atoms read")
	}
	// magnetic tension-ish: cross(curl(magnetic), magnetic) — derivative on
	// one input only, still needs halo for that input
	if err := db.RegisterField("jxb", "norm(cross(curl(magnetic), magnetic))"); err != nil {
		t.Fatal(err)
	}
	_, stats2, err := db.Threshold(ThresholdQuery{Field: "jxb", Threshold: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if db.Nodes() > 1 && stats2.HaloAtoms == 0 {
		t.Error("derivative expression fetched no halo atoms")
	}
}

func TestBuildLandmarks(t *testing.T) {
	db := openTest(t, Config{Seed: 31, Steps: 3, Cache: true})
	ldb, err := db.BuildLandmarks(FieldVorticity, LandmarkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ldb.Count() == 0 {
		t.Fatal("no landmarks recorded")
	}
	all, err := ldb.Find(LandmarkFilter{Step: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != ldb.Count() {
		t.Errorf("Find returned %d of %d", len(all), ldb.Count())
	}
	for i := 1; i < len(all); i++ {
		if all[i].Peak.Value > all[i-1].Peak.Value {
			t.Fatal("landmarks not sorted by peak")
		}
	}
	top := all[0]
	if top.Size < 1 || top.Lifespan() < 1 || top.Field != FieldVorticity {
		t.Errorf("top landmark: %+v", top)
	}
	// a filter by the top landmark's own peak keeps only it (and ties)
	strong, err := ldb.Find(LandmarkFilter{MinPeak: top.Peak.Value, Step: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(strong) == 0 || strong[0].ID != top.ID {
		t.Errorf("MinPeak filter: %+v", strong)
	}
	// region query around the top peak finds it
	region := Box{
		Lo: [3]int{top.Peak.X - 1, top.Peak.Y - 1, top.Peak.Z - 1},
		Hi: [3]int{top.Peak.X + 2, top.Peak.Y + 2, top.Peak.Z + 2},
	}
	near, err := ldb.Find(LandmarkFilter{Region: region, Step: -1})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, l := range near {
		if l.ID == top.ID {
			found = true
		}
	}
	if !found {
		t.Error("region query missed the top landmark")
	}
	// the builder's threshold queries warmed the cache
	hits, _, _, _ := db.CacheStats()
	_ = hits // hits may be zero on first build; rebuilding must hit
	ldb2, err := db.BuildLandmarks(FieldVorticity, LandmarkOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ldb2.Count() != ldb.Count() {
		t.Errorf("rebuild found %d landmarks, first build %d", ldb2.Count(), ldb.Count())
	}
	hits2, _, _, _ := db.CacheStats()
	if hits2 == 0 {
		t.Error("rebuild did not reuse cached threshold results")
	}
}

func TestCachePDFExtension(t *testing.T) {
	db := openTest(t, Config{Kind: MHD, Cache: true, CachePDF: 16, Seed: 41, Simulate: true, GridN: 32})
	q := PDFQuery{Field: FieldVorticity, Bins: 8, Width: 2}
	cold, coldStats, err := db.PDF(q)
	if err != nil {
		t.Fatal(err)
	}
	warm, warmStats, err := db.PDF(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold {
		if cold[i] != warm[i] {
			t.Fatalf("cached PDF differs at bin %d", i)
		}
	}
	if warmStats.IO != 0 || warmStats.Compute != 0 {
		t.Errorf("cached PDF still paid I/O %v compute %v", warmStats.IO, warmStats.Compute)
	}
	if warmStats.Total >= coldStats.Total {
		t.Errorf("cached PDF %v not faster than cold %v", warmStats.Total, coldStats.Total)
	}
	// different binning is a different key → recompute
	_, other, err := db.PDF(PDFQuery{Field: FieldVorticity, Bins: 4, Width: 2})
	if err != nil {
		t.Fatal(err)
	}
	if other.IO == 0 {
		t.Error("different PDF parameters served from cache")
	}
}

// A dropped cache forgets cached histograms too: the PDF after DropCache is
// evaluated again, not answered from the aggregate table.
func TestDropCacheForgetsPDF(t *testing.T) {
	db := openTest(t, Config{Kind: MHD, Cache: true, CachePDF: 16, Seed: 41, Simulate: true, GridN: 32})
	q := PDFQuery{Field: FieldVorticity, Bins: 8, Width: 2}
	if _, _, err := db.PDF(q); err != nil {
		t.Fatal(err)
	}
	if err := db.DropCache(FieldVorticity, 0, 0); err != nil {
		t.Fatal(err)
	}
	_, stats, err := db.PDF(q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.IO == 0 || stats.Compute == 0 {
		t.Errorf("PDF after a drop paid I/O %v, compute %v: served from the cache", stats.IO, stats.Compute)
	}
}

// TestFieldsRegisterRace exercises concurrent RegisterField and Fields calls;
// run with -race to catch unsynchronized access to the custom-field list
// (Fields previously read db.custom without db.mu).
func TestFieldsRegisterRace(t *testing.T) {
	db := openTest(t, Config{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			name := "r" + string(rune('a'+i%26)) + string(rune('a'+i/26))
			if err := db.RegisterField(name, "abs(pressure)"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		db.Fields()
	}
	<-done
	if n := len(db.Fields()); n < 50 {
		t.Errorf("expected ≥ 50 fields after concurrent registration, got %d", n)
	}
}
