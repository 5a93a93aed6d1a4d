package store

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"github.com/turbdb/turbdb/internal/diskmodel"
	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/field"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/sim"
)

func testGrid(t testing.TB, n int) grid.Grid {
	t.Helper()
	g, err := grid.New(n, 8, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func newStore(t testing.TB, g grid.Grid) *Store {
	t.Helper()
	s, err := New(Config{Grid: g, Owned: g.AtomRange()})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func blobFor(g grid.Grid, nc int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, g.PointsPerAtom()*nc*4)
	rng.Read(b)
	return b
}

func TestNewValidation(t *testing.T) {
	g := testGrid(t, 16)
	if _, err := New(Config{Grid: g, Owned: morton.Range{}}); err == nil {
		t.Error("accepted empty range")
	}
	k := sim.New()
	if _, err := New(Config{Grid: g, Owned: g.AtomRange(), Kernel: k}); err == nil {
		t.Error("accepted kernel without device")
	}
}

func TestCreateFieldAndSchema(t *testing.T) {
	s := newStore(t, testGrid(t, 16))
	if err := s.CreateField(FieldMeta{Name: "velocity", NComp: 3}); err != nil {
		t.Fatal(err)
	}
	// idempotent with same schema
	if err := s.CreateField(FieldMeta{Name: "velocity", NComp: 3}); err != nil {
		t.Fatal(err)
	}
	// conflicting schema rejected
	if err := s.CreateField(FieldMeta{Name: "velocity", NComp: 1}); err == nil {
		t.Error("accepted conflicting schema")
	}
	if err := s.CreateField(FieldMeta{Name: "", NComp: 1}); err == nil {
		t.Error("accepted empty name")
	}
	if err := s.CreateField(FieldMeta{Name: "x", NComp: 0}); err == nil {
		t.Error("accepted zero comps")
	}
	m, err := s.FieldMeta("velocity")
	if err != nil || m.NComp != 3 {
		t.Errorf("FieldMeta = %+v, %v", m, err)
	}
	if _, err := s.FieldMeta("nope"); err == nil {
		t.Error("FieldMeta accepted unknown field")
	}
	fs := s.Fields()
	if len(fs) != 1 || fs[0].Name != "velocity" {
		t.Errorf("Fields = %v", fs)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	g := testGrid(t, 16)
	s := newStore(t, g)
	if err := s.CreateField(FieldMeta{Name: "v", NComp: 3}); err != nil {
		t.Fatal(err)
	}
	blob := blobFor(g, 3, 1)
	if err := s.Put("v", 0, 3, blob); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadAtom(nil, "v", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(blob) {
		t.Error("blob mismatch")
	}
	// missing atom
	if _, err := s.ReadAtom(nil, "v", 0, 4); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing atom error = %v", err)
	}
	// missing step
	if _, err := s.ReadAtom(nil, "v", 1, 3); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing step error = %v", err)
	}
	// unknown field
	if _, err := s.ReadAtom(nil, "w", 0, 3); err == nil {
		t.Error("unknown field accepted")
	}
	if n := s.CountAtoms("v", 0); n != 1 {
		t.Errorf("CountAtoms = %d", n)
	}
}

func TestPutValidation(t *testing.T) {
	g := testGrid(t, 16)
	s := newStore(t, g)
	_ = s.CreateField(FieldMeta{Name: "v", NComp: 3})
	if err := s.Put("v", 0, 3, make([]byte, 7)); err == nil {
		t.Error("accepted wrong blob size")
	}
	if err := s.Put("w", 0, 3, blobFor(g, 3, 1)); err == nil {
		t.Error("accepted unknown field")
	}
	// out of owned range: grid 16/8 → atoms [0,8)
	if err := s.Put("v", 0, 8, blobFor(g, 3, 1)); err == nil {
		t.Error("accepted out-of-range code")
	}
}

// TestPutServedStepNeverChanges: putting an atom the store holds again
// with equal bytes is a no-op, as overlapping held ranges after a
// rebalance need; with other bytes it is a permanent error and the held
// bytes stay.
func TestPutServedStepNeverChanges(t *testing.T) {
	g := testGrid(t, 16)
	s := newStore(t, g)
	if err := s.CreateField(FieldMeta{Name: "v", NComp: 3}); err != nil {
		t.Fatal(err)
	}
	blob := blobFor(g, 3, 1)
	if err := s.Put("v", 0, 3, blob); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("v", 0, 3, append([]byte(nil), blob...)); err != nil {
		t.Fatalf("equal bytes again: %v", err)
	}
	err := s.Put("v", 0, 3, blobFor(g, 3, 2))
	var class faulttol.TransientMarker
	if !errors.As(err, &class) || class.Transient() {
		t.Fatalf("other bytes for a held atom: err = %v, want a permanent error", err)
	}
	if got, err := s.ReadAtom(nil, "v", 0, 3); err != nil || string(got) != string(blob) {
		t.Fatalf("held bytes changed (err %v)", err)
	}
	if err := s.Put("v", 1, 3, blobFor(g, 3, 2)); err != nil {
		t.Fatalf("the same atom at another step: %v", err)
	}
}

func TestStripeSpreadsPartitions(t *testing.T) {
	g := testGrid(t, 32) // 64 atoms
	s, err := New(Config{Grid: g, Owned: g.AtomRange()})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]int{}
	for c := morton.Code(0); c < 64; c++ {
		seen[s.stripe(c)]++
	}
	if len(seen) != 4 {
		t.Fatalf("stripes used: %v, want 4 partitions", seen)
	}
	for p, n := range seen {
		if n != 16 {
			t.Errorf("partition %d holds %d atoms, want 16", p, n)
		}
	}
}

func TestReadAtomsBatchAndSimCharging(t *testing.T) {
	g := testGrid(t, 16)
	k := sim.New()
	dev, err := diskmodel.New(k, diskmodel.Spec{Name: "d", Arrays: 1, Seek: time.Millisecond, Bandwidth: 1e12})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Grid: g, Owned: g.AtomRange(), Kernel: k, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	_ = s.CreateField(FieldMeta{Name: "v", NComp: 1})
	codes := []morton.Code{0, 1, 2, 3, 4, 5}
	for _, c := range codes {
		if err := s.Put("v", 0, c, blobFor(g, 1, int64(c))); err != nil {
			t.Fatal(err)
		}
	}
	var got map[morton.Code][]byte
	k.Go("query", func(p *sim.Proc) {
		var rerr error
		got, rerr = s.ReadAtoms(p, "v", 0, codes)
		if rerr != nil {
			t.Error(rerr)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(codes) {
		t.Fatalf("got %d blobs", len(got))
	}
	// single array, 6 seeks of 1ms each, near-negligible transfer → ~6ms
	if d := k.Now() - 6*time.Millisecond; d < 0 || d > 10*time.Microsecond {
		t.Errorf("batch read took %v, want ≈6ms", k.Now())
	}
	reads, _ := dev.Stats()
	if reads != 6 {
		t.Errorf("device saw %d reads", reads)
	}
}

func TestReadAtomsWindowLimitsParallelism(t *testing.T) {
	// With 4 arrays but ReadWindow=3, a single stream keeps at most 3 arrays
	// busy: 12 seeks of 1ms → ceil(12/3) = 4ms.
	g := testGrid(t, 32)
	k := sim.New()
	dev, _ := diskmodel.New(k, diskmodel.Spec{Name: "d", Arrays: 4, Seek: time.Millisecond, Bandwidth: 1e12})
	s, _ := New(Config{Grid: g, Owned: g.AtomRange(), Kernel: k, Device: dev})
	_ = s.CreateField(FieldMeta{Name: "v", NComp: 1})
	var codes []morton.Code
	for c := morton.Code(0); c < 12; c++ {
		// spread across partitions: codes 0..11 of 64 → stripes 0,0,0,0,0,0...
		// use wider spacing for spread
		code := c * 5
		codes = append(codes, code)
		if err := s.Put("v", 0, code, blobFor(g, 1, int64(c))); err != nil {
			t.Fatal(err)
		}
	}
	k.Go("query", func(p *sim.Proc) {
		if _, err := s.ReadAtoms(p, "v", 0, codes); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// lower bound: 12 seeks / window 3 = 4ms; exact value depends on stripe
	// placement, but must be well below serialized 12ms and at least 4ms.
	if k.Now() < 4*time.Millisecond || k.Now() >= 12*time.Millisecond {
		t.Errorf("windowed batch took %v, want in [4ms, 12ms)", k.Now())
	}
}

func TestReadAtomsMissing(t *testing.T) {
	g := testGrid(t, 16)
	s := newStore(t, g)
	_ = s.CreateField(FieldMeta{Name: "v", NComp: 1})
	if _, err := s.ReadAtoms(nil, "v", 0, []morton.Code{0}); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
}

func TestIngestBlock(t *testing.T) {
	g := testGrid(t, 16)
	s := newStore(t, g)
	_ = s.CreateField(FieldMeta{Name: "v", NComp: 3})
	bl := field.NewBlock(g.Domain(), 3)
	bl.Fill(func(p grid.Point, vals []float64) {
		vals[0] = float64(p.X)
		vals[1] = float64(p.Y)
		vals[2] = float64(p.Z)
	})
	n, err := s.IngestBlock("v", 0, bl)
	if err != nil {
		t.Fatal(err)
	}
	if n != g.NumAtoms() {
		t.Fatalf("ingested %d atoms, want %d", n, g.NumAtoms())
	}
	// read one atom back and check contents
	code := g.AtomCode(grid.Point{X: 8, Y: 8, Z: 8})
	blob, err := s.ReadAtom(nil, "v", 0, code)
	if err != nil {
		t.Fatal(err)
	}
	atom, err := field.BlockFromBytes(g.AtomBox(code), 3, blob)
	if err != nil {
		t.Fatal(err)
	}
	p := grid.Point{X: 9, Y: 10, Z: 11}
	if atom.At(p, 0) != 9 || atom.At(p, 1) != 10 || atom.At(p, 2) != 11 {
		t.Errorf("atom content wrong at %v: %v %v %v",
			p, atom.At(p, 0), atom.At(p, 1), atom.At(p, 2))
	}
}

func TestIngestValidation(t *testing.T) {
	g := testGrid(t, 16)
	s := newStore(t, g)
	_ = s.CreateField(FieldMeta{Name: "v", NComp: 3})
	wrongComp := field.NewBlock(g.Domain(), 1)
	if _, err := s.IngestBlock("v", 0, wrongComp); err == nil {
		t.Error("accepted wrong comp count")
	}
	wrongBounds := field.NewBlock(grid.Box{Hi: grid.Point{X: 8, Y: 8, Z: 8}}, 3)
	if _, err := s.IngestBlock("v", 0, wrongBounds); err == nil {
		t.Error("accepted non-domain block")
	}
	if _, err := s.IngestBlock("nope", 0, field.NewBlock(g.Domain(), 3)); err == nil {
		t.Error("accepted unknown field")
	}
}

func TestIngestOnlyOwnedShard(t *testing.T) {
	g := testGrid(t, 16) // 8 atoms
	s, err := New(Config{Grid: g, Owned: morton.Range{Lo: 2, Hi: 5}})
	if err != nil {
		t.Fatal(err)
	}
	_ = s.CreateField(FieldMeta{Name: "v", NComp: 1})
	bl := field.NewBlock(g.Domain(), 1)
	n, err := s.IngestBlock("v", 0, bl)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("ingested %d atoms, want 3 (owned shard only)", n)
	}
	if _, err := s.ReadAtom(nil, "v", 0, 2); err != nil {
		t.Errorf("owned atom missing: %v", err)
	}
	if _, err := s.ReadAtom(nil, "v", 0, 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("unowned atom present: %v", err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	g := testGrid(t, 16)
	s := newStore(t, g)
	_ = s.CreateField(FieldMeta{Name: "v", NComp: 3})
	_ = s.CreateField(FieldMeta{Name: "p", NComp: 1})
	bl := field.NewBlock(g.Domain(), 3)
	bl.Fill(func(p grid.Point, vals []float64) { vals[0], vals[1], vals[2] = 1, 2, 3 })
	if _, err := s.IngestBlock("v", 0, bl); err != nil {
		t.Fatal(err)
	}
	if _, err := s.IngestBlock("v", 1, bl); err != nil {
		t.Fatal(err)
	}
	pb := field.NewBlock(g.Domain(), 1)
	if _, err := s.IngestBlock("p", 0, pb); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}

	s2 := newStore(t, g)
	_ = s2.CreateField(FieldMeta{Name: "v", NComp: 3})
	_ = s2.CreateField(FieldMeta{Name: "p", NComp: 1})
	if err := s2.Load(dir, "v"); err != nil {
		t.Fatal(err)
	}
	if err := s2.Load(dir, "p"); err != nil {
		t.Fatal(err)
	}
	if n := s2.CountAtoms("v", 0); n != g.NumAtoms() {
		t.Errorf("loaded %d atoms at step 0", n)
	}
	if n := s2.CountAtoms("v", 1); n != g.NumAtoms() {
		t.Errorf("loaded %d atoms at step 1", n)
	}
	got, err := s2.ReadAtom(nil, "v", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := s.ReadAtom(nil, "v", 0, 0)
	if string(got) != string(want) {
		t.Error("loaded blob differs")
	}
}

func TestLoadSchemaMismatch(t *testing.T) {
	g := testGrid(t, 16)
	s := newStore(t, g)
	_ = s.CreateField(FieldMeta{Name: "v", NComp: 3})
	bl := field.NewBlock(g.Domain(), 3)
	_, _ = s.IngestBlock("v", 0, bl)
	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	// loading into a store with different comp count must fail
	s2 := newStore(t, g)
	_ = s2.CreateField(FieldMeta{Name: "v", NComp: 1})
	if err := s2.Load(dir, "v"); err == nil {
		t.Error("accepted comp mismatch")
	}
	// loading into a different geometry must fail
	g2 := testGrid(t, 32)
	s3, _ := New(Config{Grid: g2, Owned: g2.AtomRange()})
	_ = s3.CreateField(FieldMeta{Name: "v", NComp: 3})
	if err := s3.Load(dir, "v"); err == nil {
		t.Error("accepted geometry mismatch")
	}
	// unknown field
	if err := s2.Load(dir, "zzz"); err == nil {
		t.Error("accepted unknown field load")
	}
}

func BenchmarkIngestBlock32(b *testing.B) {
	g := testGrid(b, 32)
	bl := field.NewBlock(g.Domain(), 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := newStore(b, g)
		_ = s.CreateField(FieldMeta{Name: "v", NComp: 3})
		if _, err := s.IngestBlock("v", 0, bl); err != nil {
			b.Fatal(err)
		}
	}
}
