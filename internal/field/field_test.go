package field

import (
	"math"
	"math/rand"
	"testing"

	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/mathx"
)

func box(lo, hi int) grid.Box {
	return grid.Box{Lo: grid.Point{X: lo, Y: lo, Z: lo}, Hi: grid.Point{X: hi, Y: hi, Z: hi}}
}

func TestNewBlockZeroed(t *testing.T) {
	bl := NewBlock(box(0, 4), 3)
	if len(bl.Data) != 4*4*4*3 {
		t.Fatalf("Data length %d", len(bl.Data))
	}
	for _, v := range bl.Data {
		if v != 0 {
			t.Fatal("new block not zeroed")
		}
	}
}

func TestNewBlockPanicsOnBadComp(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for nc=0")
		}
	}()
	NewBlock(box(0, 2), 0)
}

func TestAtSetRoundTrip(t *testing.T) {
	bl := NewBlock(grid.Box{Lo: grid.Point{X: 2, Y: 4, Z: 6}, Hi: grid.Point{X: 6, Y: 8, Z: 10}}, 2)
	rng := rand.New(rand.NewSource(1))
	type entry struct {
		p grid.Point
		c int
		v float64
	}
	var entries []entry
	for i := 0; i < 100; i++ {
		p := grid.Point{X: 2 + rng.Intn(4), Y: 4 + rng.Intn(4), Z: 6 + rng.Intn(4)}
		c := rng.Intn(2)
		v := float64(float32(rng.NormFloat64()))
		bl.Set(p, c, v)
		entries = append(entries, entry{p, c, v})
	}
	// later writes win; replay forward keeping the last value per key
	last := map[[4]int]float64{}
	for _, e := range entries {
		last[[4]int{e.p.X, e.p.Y, e.p.Z, e.c}] = e.v
	}
	for k, v := range last {
		got := bl.At(grid.Point{X: k[0], Y: k[1], Z: k[2]}, k[3])
		if got != v {
			t.Fatalf("At(%v) = %v, want %v", k, got, v)
		}
	}
}

func TestVec3RoundTrip(t *testing.T) {
	bl := NewBlock(box(0, 2), 3)
	v := mathx.Vec3{X: 1.5, Y: -2.25, Z: 3.125}
	p := grid.Point{X: 1, Y: 0, Z: 1}
	bl.SetVec3(p, v)
	if got := bl.Vec3At(p); got != v {
		t.Errorf("Vec3At = %v, want %v", got, v)
	}
	// component accessors agree
	if bl.At(p, 0) != v.X || bl.At(p, 1) != v.Y || bl.At(p, 2) != v.Z {
		t.Error("component view disagrees with vector view")
	}
}

func TestFillVisitsEveryPointOnce(t *testing.T) {
	bl := NewBlock(grid.Box{Lo: grid.Point{X: -2, Y: 0, Z: 3}, Hi: grid.Point{X: 1, Y: 2, Z: 5}}, 1)
	seen := map[grid.Point]int{}
	bl.Fill(func(p grid.Point, vals []float64) {
		seen[p]++
		vals[0] = float64(p.X + 10*p.Y + 100*p.Z)
	})
	if len(seen) != bl.Bounds.NumPoints() {
		t.Fatalf("visited %d points, want %d", len(seen), bl.Bounds.NumPoints())
	}
	for p, n := range seen {
		if n != 1 {
			t.Fatalf("point %v visited %d times", p, n)
		}
		if got := bl.At(p, 0); got != float64(p.X+10*p.Y+100*p.Z) {
			t.Fatalf("value at %v = %v", p, got)
		}
	}
}

func TestCopyFromIntersection(t *testing.T) {
	src := NewBlock(box(0, 4), 1)
	src.Fill(func(p grid.Point, vals []float64) { vals[0] = float64(p.X + 4*p.Y + 16*p.Z) })
	dst := NewBlock(box(2, 6), 1)
	if err := dst.CopyFrom(src, grid.Point{}); err != nil {
		t.Fatal(err)
	}
	// overlap region [2,4)³ copied, remainder untouched
	var p grid.Point
	for p.Z = 2; p.Z < 6; p.Z++ {
		for p.Y = 2; p.Y < 6; p.Y++ {
			for p.X = 2; p.X < 6; p.X++ {
				want := 0.0
				if p.X < 4 && p.Y < 4 && p.Z < 4 {
					want = float64(p.X + 4*p.Y + 16*p.Z)
				}
				if got := dst.At(p, 0); got != want {
					t.Fatalf("dst at %v = %v, want %v", p, got, want)
				}
			}
		}
	}
}

func TestCopyFromWithOffset(t *testing.T) {
	// Simulates the periodic halo gather: an atom at the far side of the
	// domain is copied into a halo position using a translation.
	src := NewBlock(box(0, 2), 1)
	src.Fill(func(p grid.Point, vals []float64) { vals[0] = 7 })
	dst := NewBlock(grid.Box{Lo: grid.Point{X: -2, Y: -2, Z: -2}, Hi: grid.Point{X: 0, Y: 0, Z: 0}}, 1)
	if err := dst.CopyFrom(src, grid.Point{X: -2, Y: -2, Z: -2}); err != nil {
		t.Fatal(err)
	}
	var p grid.Point
	for p.Z = -2; p.Z < 0; p.Z++ {
		for p.Y = -2; p.Y < 0; p.Y++ {
			for p.X = -2; p.X < 0; p.X++ {
				if got := dst.At(p, 0); got != 7 {
					t.Fatalf("halo at %v = %v, want 7", p, got)
				}
			}
		}
	}
}

func TestCopyFromComponentMismatch(t *testing.T) {
	src := NewBlock(box(0, 2), 3)
	dst := NewBlock(box(0, 2), 1)
	if err := dst.CopyFrom(src, grid.Point{}); err == nil {
		t.Error("expected component mismatch error")
	}
}

func TestCopyFromDisjoint(t *testing.T) {
	src := NewBlock(box(0, 2), 1)
	src.Fill(func(p grid.Point, vals []float64) { vals[0] = 1 })
	dst := NewBlock(box(10, 12), 1)
	if err := dst.CopyFrom(src, grid.Point{}); err != nil {
		t.Fatal(err)
	}
	for _, v := range dst.Data {
		if v != 0 {
			t.Fatal("disjoint copy wrote data")
		}
	}
}

func TestRMS(t *testing.T) {
	// constant vector (3,4,0): norm 5 everywhere → RMS 5
	bl := NewBlock(box(0, 4), 3)
	bl.Fill(func(p grid.Point, vals []float64) { vals[0], vals[1], vals[2] = 3, 4, 0 })
	if got := bl.RMS(); math.Abs(got-5) > 1e-6 {
		t.Errorf("RMS = %v, want 5", got)
	}
	// empty block
	if got := (&Block{NComp: 1}).RMS(); got != 0 {
		t.Errorf("empty RMS = %v", got)
	}
	// scalar alternating ±2 → RMS 2
	s := NewBlock(box(0, 2), 1)
	sign := 1.0
	s.Fill(func(p grid.Point, vals []float64) { vals[0] = 2 * sign; sign = -sign })
	if got := s.RMS(); math.Abs(got-2) > 1e-6 {
		t.Errorf("alternating RMS = %v, want 2", got)
	}
}

func TestBytesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	bl := NewBlock(box(0, 8), 3)
	for i := range bl.Data {
		bl.Data[i] = float32(rng.NormFloat64())
	}
	blob := bl.Bytes()
	if len(blob) != ByteSize(bl.Bounds, 3) {
		t.Fatalf("blob size %d, want %d", len(blob), ByteSize(bl.Bounds, 3))
	}
	got, err := BlockFromBytes(bl.Bounds, 3, blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bl.Data {
		if got.Data[i] != bl.Data[i] {
			t.Fatalf("data mismatch at %d", i)
		}
	}
}

func TestBlockFromBytesLengthCheck(t *testing.T) {
	if _, err := BlockFromBytes(box(0, 2), 1, make([]byte, 5)); err == nil {
		t.Error("expected length error")
	}
}

// A part cut out of a blob decodes, over the part, to exactly what the
// whole blob decodes to there — for parts touching every face of the
// block, parts of one row or one point, and the whole block.
func TestAppendPartDecodesAsTheWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := grid.Box{Lo: grid.Point{X: -8, Y: 16, Z: 0}, Hi: grid.Point{X: 0, Y: 24, Z: 8}}
	for _, nc := range []int{1, 3} {
		bl := NewBlock(src, nc)
		for i := range bl.Data {
			bl.Data[i] = float32(rng.NormFloat64())
		}
		blob := bl.Bytes()
		parts := []grid.Box{src, {Lo: src.Lo, Hi: src.Lo.Add(1, 1, 1)}, {Lo: src.Hi.Add(-1, -1, -1), Hi: src.Hi}}
		for len(parts) < 40 {
			var lo, hi [3]int
			for a := range lo {
				lo[a] = rng.Intn(8)
				hi[a] = lo[a] + 1 + rng.Intn(8-lo[a])
			}
			parts = append(parts, grid.Box{Lo: src.Lo.Add(lo[0], lo[1], lo[2]), Hi: src.Lo.Add(hi[0], hi[1], hi[2])})
		}
		for _, part := range parts {
			prefix := []byte{0xAB}
			cut := AppendPart(prefix, blob, src, part, nc)
			if len(cut) != 1+ByteSize(part, nc) || cut[0] != 0xAB {
				t.Fatalf("part %v: %d bytes after a 1-byte prefix, want %d", part, len(cut)-1, ByteSize(part, nc))
			}
			got, want := NewBlock(part, nc), NewBlock(part, nc)
			got.DecodeFrom(cut[1:], part)
			want.DecodeFrom(blob, src)
			for i := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("part %v × %d: value %d is %v, the whole blob's %v", part, nc, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

func TestByteSizeMatchesPaper(t *testing.T) {
	// An 8³ atom of a 3-component field is 8³·3·4 = 6144 bytes.
	if got := ByteSize(box(0, 8), 3); got != 6144 {
		t.Errorf("ByteSize = %d, want 6144", got)
	}
}

func BenchmarkFill64(b *testing.B) {
	bl := NewBlock(box(0, 64), 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl.Fill(func(p grid.Point, vals []float64) {
			vals[0] = float64(p.X)
			vals[1] = float64(p.Y)
			vals[2] = float64(p.Z)
		})
	}
}

func BenchmarkBytes8Atom(b *testing.B) {
	bl := NewBlock(box(0, 8), 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bl.Bytes()
	}
}
