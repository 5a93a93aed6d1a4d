package field

import (
	"math/rand"
	"testing"

	"github.com/turbdb/turbdb/internal/grid"
)

func TestOffsetStridesConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		lo := grid.Point{X: rng.Intn(9) - 4, Y: rng.Intn(9) - 4, Z: rng.Intn(9) - 4}
		b := grid.Box{Lo: lo, Hi: lo.Add(1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5))}
		nc := 1 + rng.Intn(4)
		bl := NewBlock(b, nc)
		sx, sy, sz := bl.Strides()
		base := bl.Offset(b.Lo, 0)
		if base != 0 {
			t.Fatalf("Offset(Lo, 0) = %d", base)
		}
		var p grid.Point
		for p.Z = b.Lo.Z; p.Z < b.Hi.Z; p.Z++ {
			for p.Y = b.Lo.Y; p.Y < b.Hi.Y; p.Y++ {
				for p.X = b.Lo.X; p.X < b.Hi.X; p.X++ {
					for c := 0; c < nc; c++ {
						want := (p.Z-b.Lo.Z)*sz + (p.Y-b.Lo.Y)*sy + (p.X-b.Lo.X)*sx + c
						if got := bl.Offset(p, c); got != want {
							t.Fatalf("Offset(%v, %d) = %d, strides give %d", p, c, got, want)
						}
					}
				}
			}
		}
	}
}

func TestResetReusesAllocation(t *testing.T) {
	big := grid.Box{Hi: grid.Point{X: 4, Y: 4, Z: 4}}
	bl := NewBlock(big, 3)
	data := &bl.Data[0]
	small := grid.Box{Lo: grid.Point{X: -1, Y: -1, Z: -1}, Hi: grid.Point{X: 2, Y: 2, Z: 2}}
	bl.Reset(small, 2)
	if bl.Bounds != small || bl.NComp != 2 || len(bl.Data) != small.NumPoints()*2 {
		t.Fatalf("Reset shape: %+v len %d", bl.Bounds, len(bl.Data))
	}
	if &bl.Data[0] != data {
		t.Error("Reset to a smaller shape reallocated")
	}
	huge := grid.Box{Hi: grid.Point{X: 8, Y: 8, Z: 8}}
	bl.Reset(huge, 3)
	if len(bl.Data) != huge.NumPoints()*3 {
		t.Fatalf("Reset growth: len %d", len(bl.Data))
	}
}

// copyFromRef is the pre-optimization per-point CopyFrom, kept as the
// differential reference for the memmove-bound row implementation.
func copyFromRef(dst, src *Block, offset grid.Point) {
	dstRegion := grid.Box{
		Lo: src.Bounds.Lo.Add(offset.X, offset.Y, offset.Z),
		Hi: src.Bounds.Hi.Add(offset.X, offset.Y, offset.Z),
	}.Intersect(dst.Bounds)
	if dstRegion.Empty() {
		return
	}
	var p grid.Point
	for p.Z = dstRegion.Lo.Z; p.Z < dstRegion.Hi.Z; p.Z++ {
		for p.Y = dstRegion.Lo.Y; p.Y < dstRegion.Hi.Y; p.Y++ {
			for p.X = dstRegion.Lo.X; p.X < dstRegion.Hi.X; p.X++ {
				sp := p.Add(-offset.X, -offset.Y, -offset.Z)
				si := src.index(sp, 0)
				di := dst.index(p, 0)
				copy(dst.Data[di:di+dst.NComp], src.Data[si:si+src.NComp])
			}
		}
	}
}

func TestCopyFromRowwiseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	randBox := func() grid.Box {
		lo := grid.Point{X: rng.Intn(11) - 5, Y: rng.Intn(11) - 5, Z: rng.Intn(11) - 5}
		return grid.Box{Lo: lo, Hi: lo.Add(1+rng.Intn(7), 1+rng.Intn(7), 1+rng.Intn(7))}
	}
	for trial := 0; trial < 200; trial++ {
		nc := 1 + rng.Intn(3)
		src := NewBlock(randBox(), nc)
		for i := range src.Data {
			src.Data[i] = float32(rng.NormFloat64())
		}
		offset := grid.Point{X: rng.Intn(7) - 3, Y: rng.Intn(7) - 3, Z: rng.Intn(7) - 3}
		box := randBox()
		got := NewBlock(box, nc)
		want := NewBlock(box, nc)
		for i := range got.Data {
			v := float32(rng.NormFloat64())
			got.Data[i], want.Data[i] = v, v
		}
		if err := got.CopyFrom(src, offset); err != nil {
			t.Fatal(err)
		}
		copyFromRef(want, src, offset)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] { //lint:allow floateq differential test wants exact copy semantics
				t.Fatalf("trial %d: Data[%d] = %g, reference %g", trial, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// DecodeFrom walks both flat offsets by strides instead of recomputing them
// per row; decoding a blob straight into a block must equal materializing
// the source block and copying the intersection, for boxes that overlap in
// any way (partially, not at all, one inside the other) and leave the rest
// of the destination untouched.
func TestDecodeFromMatchesCopyFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	randBox := func() grid.Box {
		lo := grid.Point{X: rng.Intn(11) - 5, Y: rng.Intn(11) - 5, Z: rng.Intn(11) - 5}
		return grid.Box{Lo: lo, Hi: lo.Add(1+rng.Intn(7), 1+rng.Intn(7), 1+rng.Intn(7))}
	}
	for trial := 0; trial < 300; trial++ {
		nc := 1 + rng.Intn(3)
		src := NewBlock(randBox(), nc)
		for i := range src.Data {
			src.Data[i] = float32(rng.NormFloat64())
		}
		box := randBox()
		got, want := NewBlock(box, nc), NewBlock(box, nc)
		for i := range got.Data {
			v := float32(rng.NormFloat64())
			got.Data[i], want.Data[i] = v, v
		}
		got.DecodeFrom(src.Bytes(), src.Bounds)
		if err := want.CopyFrom(src, grid.Point{}); err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] { //lint:allow floateq differential test wants exact copy semantics
				t.Fatalf("trial %d (%v into %v): Data[%d] = %g, CopyFrom gives %g", trial, src.Bounds, box, i, got.Data[i], want.Data[i])
			}
		}
	}
}
