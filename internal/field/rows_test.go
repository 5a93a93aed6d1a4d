package field

import (
	"math"
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

	sl := &Slab{}
	sl.Reset(big, 3)
	sdata := &sl.Data[0]
	sl.Reset(small, 2)
	if sl.Bounds != small || sl.NComp != 2 || len(sl.Data) != small.NumPoints()*2 || &sl.Data[0] != sdata {
		t.Fatalf("Slab.Reset to a smaller shape: %+v len %d, reallocated %v", sl.Bounds, len(sl.Data), &sl.Data[0] != sdata)
	}
	sl.Reset(huge, 3)
	if len(sl.Data) != huge.NumPoints()*3 {
		t.Fatalf("Slab.Reset growth: len %d", len(sl.Data))
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
			if got.Data[i] != want.Data[i] { // differential test wants exact copy semantics
				t.Fatalf("trial %d: Data[%d] = %g, reference %g", trial, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// DecodeFrom walks both flat offsets by strides instead of recomputing them
// per row; decoding a blob straight into a block must equal materializing
// the source block and copying the intersection inside the region, for
// boxes and regions that overlap in any way (partially, not at all, one
// inside the other) and leave the rest of the destination untouched.
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
		region := box
		if trial%2 == 1 {
			region = randBox()
		}
		got.DecodeFrom(src.Bytes(), src.Bounds, region)
		copied := NewBlock(box, nc)
		if err := copied.CopyFrom(src, grid.Point{}); err != nil {
			t.Fatal(err)
		}
		r := src.Bounds.Intersect(region).Intersect(box)
		var p grid.Point
		for p.Z = r.Lo.Z; p.Z < r.Hi.Z; p.Z++ {
			for p.Y = r.Lo.Y; p.Y < r.Hi.Y; p.Y++ {
				for p.X = r.Lo.X; p.X < r.Hi.X; p.X++ {
					for c := 0; c < nc; c++ {
						want.Set(p, c, copied.At(p, c))
					}
				}
			}
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] { // differential test wants exact copy semantics
				t.Fatalf("trial %d (%v into %v in %v): Data[%d] = %g, CopyFrom gives %g", trial, src.Bounds, box, region, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// A slab is the float64 twin of a block: Slab.DecodeFrom must leave in
// every element the float64 of what Block.DecodeFrom leaves there, over
// whole atoms, parts of atoms cut with AppendPart and placed on a shifted
// periodic tile as a scan's assembly places them, and regions that clip
// either — values outside the decoded region included, and special values
// (signed zeros, infinities, NaN, denormals) in the blob.
func TestSlabDecodeFromWidensBlockDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	specials := []float32{
		0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()), math.SmallestNonzeroFloat32, -1e-40, math.MaxFloat32,
	}
	randBox := func(lo grid.Point, max int) grid.Box {
		return grid.Box{Lo: lo, Hi: lo.Add(1+rng.Intn(max), 1+rng.Intn(max), 1+rng.Intn(max))}
	}
	randPoint := func() grid.Point {
		return grid.Point{X: rng.Intn(33) - 16, Y: rng.Intn(33) - 16, Z: rng.Intn(33) - 16}
	}
	const side = 8
	for trial := 0; trial < 300; trial++ {
		nc := 1 + rng.Intn(3)
		// An atom at its home origin and the tile it lands on when a halo
		// wraps: the same blob, decoded over a shifted box.
		home := grid.Box{Hi: grid.Point{X: side, Y: side, Z: side}}
		atom := NewBlock(home, nc)
		for i := range atom.Data {
			if rng.Intn(8) == 0 {
				atom.Data[i] = specials[rng.Intn(len(specials))]
			} else {
				atom.Data[i] = float32(rng.NormFloat64())
			}
		}
		tile := home
		if trial%3 != 0 {
			o := grid.Point{X: side * (rng.Intn(5) - 2), Y: side * (rng.Intn(5) - 2), Z: side * (rng.Intn(5) - 2)}
			tile = grid.Box{Lo: o, Hi: o.Add(side, side, side)}
		}
		blob, src := atom.Bytes(), tile
		if trial%2 == 1 { // a peer shipped only the part a slab reads
			part := randBox(grid.Point{X: rng.Intn(side), Y: rng.Intn(side), Z: rng.Intn(side)}, side).Intersect(home)
			blob = AppendPart(nil, blob, home, part, nc)
			o := tile.Lo
			src = grid.Box{Lo: part.Lo.Add(o.X, o.Y, o.Z), Hi: part.Hi.Add(o.X, o.Y, o.Z)}
		}
		dst := randBox(tile.Lo.Add(rng.Intn(9)-4, rng.Intn(9)-4, rng.Intn(9)-4), 14)
		region := dst
		if trial%4 >= 2 {
			region = randBox(randPoint(), 20)
		}
		bl := NewBlock(dst, nc)
		sl := &Slab{}
		sl.Reset(dst, nc)
		for i := range bl.Data {
			v := float32(rng.NormFloat64())
			bl.Data[i], sl.Data[i] = v, float64(v)
		}
		bl.DecodeFrom(blob, src, region)
		sl.DecodeFrom(blob, src, region)
		for i, v := range bl.Data {
			if math.Float64bits(sl.Data[i]) != math.Float64bits(float64(v)) {
				t.Fatalf("trial %d (%v into %v in %v): slab[%d] = %x, float64 of the block's %x",
					trial, src, dst, region, i, math.Float64bits(sl.Data[i]), math.Float64bits(float64(v)))
			}
		}
		var p grid.Point
		for p.Z = dst.Lo.Z; p.Z < dst.Hi.Z; p.Z++ {
			for p.Y = dst.Lo.Y; p.Y < dst.Hi.Y; p.Y++ {
				for p.X = dst.Lo.X; p.X < dst.Hi.X; p.X++ {
					for c := 0; c < nc; c++ {
						if sl.Offset(p, c) != bl.Offset(p, c) || math.Float64bits(sl.At(p, c)) != math.Float64bits(bl.At(p, c)) {
							t.Fatalf("trial %d: slab and block disagree at %v comp %d", trial, p, c)
						}
					}
				}
			}
		}
	}
}
