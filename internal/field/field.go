// Package field provides the dense data containers that raw and derived
// simulation fields are held in while they move through the system: float32
// blocks for atom blobs read from the store, halo exchange and whole-time-step
// fields produced by the synthesizer, and the float64 slabs a scan's row
// kernels read.
//
// Simulation data are stored in single precision (as in the JHTDB); all
// kernel arithmetic is performed in float64 and truncated on store. A slab
// widens each stored value once, while it is decoded; float64 of a float32
// is exact, so a kernel reading a slab sees the values a Block holds.
package field

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/mathx"
)

// Block is a dense array of NComp float32 values per grid point over an
// integer box. Data are laid out x-fastest with interleaved components:
// index = ((z·ny + y)·nx + x)·NComp + c, relative to Bounds.Lo.
type Block struct {
	Bounds grid.Box
	NComp  int
	Data   []float32
}

// NewBlock allocates a zeroed block over the given box with nc components.
func NewBlock(b grid.Box, nc int) *Block {
	if nc <= 0 {
		panic(fmt.Sprintf("field: invalid component count %d", nc))
	}
	return &Block{Bounds: b, NComp: nc, Data: make([]float32, b.NumPoints()*nc)}
}

// index returns the flat offset of (p, c); p must lie inside Bounds.
//
//turbdb:rowkernel
func (bl *Block) index(p grid.Point, c int) int { return offset(bl.Bounds, bl.NComp, p, c) }

// offset is the flat offset of (p, c) in the x-fastest, component-interleaved
// layout of Block and Slab over box b with nc components.
//
//turbdb:rowkernel
func offset(b grid.Box, nc int, p grid.Point, c int) int {
	nx, ny, _ := b.Size()
	dx := p.X - b.Lo.X
	dy := p.Y - b.Lo.Y
	dz := p.Z - b.Lo.Z
	return ((dz*ny+dy)*nx+dx)*nc + c
}

// strides is the flat step of a unit move along x, y and z in that layout.
//
//turbdb:rowkernel
func strides(b grid.Box, nc int) (sx, sy, sz int) {
	nx, ny, _ := b.Size()
	sx = nc
	sy = nx * nc
	sz = ny * sy
	return sx, sy, sz
}

// Offset returns the flat offset of (p, c) in Data; p must lie inside
// Bounds. It is the exported form of index for bulk kernels that walk Data
// directly with precomputed strides.
//
//turbdb:rowkernel
func (bl *Block) Offset(p grid.Point, c int) int { return bl.index(p, c) }

// Strides returns the flat Data strides, in float32 elements, of a unit
// step along x, y and z: sx = NComp, sy = nx·NComp, sz = ny·nx·NComp.
//
//turbdb:rowkernel
func (bl *Block) Strides() (sx, sy, sz int) { return strides(bl.Bounds, bl.NComp) }

// Reset re-shapes the block over box b with nc components, reusing the
// existing Data allocation when it is large enough (growing it otherwise).
// Contents are left undefined; callers overwrite every point.
func (bl *Block) Reset(b grid.Box, nc int) {
	bl.Bounds, bl.NComp, bl.Data = b, nc, resize(bl.Data, b, nc)
}

// resize returns data re-sliced to hold a box b of nc components, reusing
// its allocation when it is large enough.
func resize[T float32 | float64](data []T, b grid.Box, nc int) []T {
	if nc <= 0 {
		panic(fmt.Sprintf("field: invalid component count %d", nc))
	}
	n := b.NumPoints() * nc
	if cap(data) < n {
		return make([]T, n)
	}
	return data[:n]
}

// At returns component c at point p. p must lie inside Bounds and c within
// [0, NComp); out-of-range access panics (these are hot inner-loop paths —
// callers validate boxes once, not per point).
//
//turbdb:rowkernel
func (bl *Block) At(p grid.Point, c int) float64 {
	return float64(bl.Data[bl.index(p, c)])
}

// Set stores component c at point p.
func (bl *Block) Set(p grid.Point, c int, v float64) {
	bl.Data[bl.index(p, c)] = float32(v)
}

// Vec3At returns the 3-vector at p; NComp must be 3.
func (bl *Block) Vec3At(p grid.Point) mathx.Vec3 {
	i := bl.index(p, 0)
	return mathx.Vec3{
		X: float64(bl.Data[i]),
		Y: float64(bl.Data[i+1]),
		Z: float64(bl.Data[i+2]),
	}
}

// SetVec3 stores a 3-vector at p; NComp must be 3.
func (bl *Block) SetVec3(p grid.Point, v mathx.Vec3) {
	i := bl.index(p, 0)
	bl.Data[i] = float32(v.X)
	bl.Data[i+1] = float32(v.Y)
	bl.Data[i+2] = float32(v.Z)
}

// Fill evaluates f at every point of the block and stores the results.
// f receives the absolute grid point and must return NComp values in vals.
func (bl *Block) Fill(f func(p grid.Point, vals []float64)) {
	vals := make([]float64, bl.NComp)
	var p grid.Point
	for p.Z = bl.Bounds.Lo.Z; p.Z < bl.Bounds.Hi.Z; p.Z++ {
		for p.Y = bl.Bounds.Lo.Y; p.Y < bl.Bounds.Hi.Y; p.Y++ {
			for p.X = bl.Bounds.Lo.X; p.X < bl.Bounds.Hi.X; p.X++ {
				f(p, vals)
				i := bl.index(p, 0)
				for c := 0; c < bl.NComp; c++ {
					bl.Data[i+c] = float32(vals[c])
				}
			}
		}
	}
}

// CopyFrom copies the intersection of src.Bounds and bl.Bounds from src,
// with an optional translation: a point p in src is written to p+offset in
// bl. Component counts must match.
func (bl *Block) CopyFrom(src *Block, offset grid.Point) error {
	if src.NComp != bl.NComp {
		return fmt.Errorf("field: component mismatch %d vs %d", src.NComp, bl.NComp)
	}
	// region of src whose translated image lands inside bl
	dstRegion := grid.Box{
		Lo: src.Bounds.Lo.Add(offset.X, offset.Y, offset.Z),
		Hi: src.Bounds.Hi.Add(offset.X, offset.Y, offset.Z),
	}.Intersect(bl.Bounds)
	if dstRegion.Empty() {
		return nil
	}
	// Rows are contiguous x-fastest runs in both blocks, so each (y, z) row
	// moves with a single memmove-bound copy of nx·NComp elements.
	rowLen := (dstRegion.Hi.X - dstRegion.Lo.X) * bl.NComp
	var p grid.Point
	p.X = dstRegion.Lo.X
	for p.Z = dstRegion.Lo.Z; p.Z < dstRegion.Hi.Z; p.Z++ {
		for p.Y = dstRegion.Lo.Y; p.Y < dstRegion.Hi.Y; p.Y++ {
			sp := p.Add(-offset.X, -offset.Y, -offset.Z)
			si := src.index(sp, 0)
			di := bl.index(p, 0)
			copy(bl.Data[di:di+rowLen], src.Data[si:si+rowLen])
		}
	}
	return nil
}

// RMS returns the root-mean-square of the per-point Euclidean norm over the
// whole block (the paper quotes thresholds as multiples of the field's RMS).
func (bl *Block) RMS() float64 {
	if len(bl.Data) == 0 {
		return 0
	}
	var sum float64
	n := len(bl.Data) / bl.NComp
	for i := 0; i < len(bl.Data); i += bl.NComp {
		var s float64
		for c := 0; c < bl.NComp; c++ {
			v := float64(bl.Data[i+c])
			s += v * v
		}
		sum += s
	}
	return math.Sqrt(sum / float64(n))
}

// Bytes serializes the block payload (raw float32 little-endian, no header).
// This is the on-disk atom blob format: 4·NComp·points bytes.
func (bl *Block) Bytes() []byte {
	out := make([]byte, 4*len(bl.Data))
	for i, v := range bl.Data {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

// BlockFromBytes reconstructs a block over box b with nc components from a
// blob produced by Bytes. The blob length must match exactly.
func BlockFromBytes(b grid.Box, nc int, blob []byte) (*Block, error) {
	want := b.NumPoints() * nc * 4
	if len(blob) != want {
		return nil, fmt.Errorf("field: blob is %d bytes, want %d for %v × %d comps",
			len(blob), want, b, nc)
	}
	bl := NewBlock(b, nc)
	bl.DecodeFrom(blob, b, b)
	return bl, nil
}

// DecodeFrom decodes into bl the part of a blob that lies inside region and
// bl.Bounds, straight from the serialized payload: no intermediate Block
// and no allocation. blob is the Bytes form of a block over src with bl's
// component count, and src and region are given in bl's coordinates — a
// periodic halo tile passes its unwrapped box. The caller has checked that
// len(blob) == ByteSize(src, bl.NComp).
//
//turbdb:rowkernel
func (bl *Block) DecodeFrom(blob []byte, src, region grid.Box) {
	decode(bl.Data, bl.Bounds, bl.NComp, blob, src, region)
}

// decode is DecodeFrom for Block and Slab: it writes into data, the flat
// layout of a box dst of nc components, each float32 of the blob inside
// src ∩ region ∩ dst, converted to T as it is read. Rows are 6 to 24 floats
// long in a slab scan, so the two flat offsets are computed once and then
// walked by the boxes' y and z strides, not recomputed per row.
//
//turbdb:rowkernel
func decode[T float32 | float64](data []T, dst grid.Box, nc int, blob []byte, src, region grid.Box) {
	r := src.Intersect(region).Intersect(dst)
	if r.Empty() {
		return
	}
	nx, ny, nz := r.Size()
	snx, sny, _ := src.Size()
	_, dsy, dsz := strides(dst, nc)
	ssy := snx * nc
	ssz := sny * ssy
	rowLen := nx * nc
	dz := offset(dst, nc, r.Lo, 0)
	sz := (r.Lo.Z-src.Lo.Z)*ssz + (r.Lo.Y-src.Lo.Y)*ssy + (r.Lo.X-src.Lo.X)*nc
	for z := 0; z < nz; z, dz, sz = z+1, dz+dsz, sz+ssz {
		for y, di, si := 0, dz, sz; y < ny; y, di, si = y+1, di+dsy, si+ssy {
			decodeRow(data[di:di+rowLen], blob[4*si:4*(si+rowLen)])
		}
	}
}

// decodeRow writes into out the float32s of row, converted to T.
//
//turbdb:rowkernel
func decodeRow[T float32 | float64](out []T, row []byte) {
	// Two floats per step: the eight ORs below compile to one 64-bit
	// load, where a float at a time pays a load and a bounds check each.
	for len(out) >= 2 && len(row) >= 8 {
		w := uint64(row[0]) | uint64(row[1])<<8 | uint64(row[2])<<16 | uint64(row[3])<<24 |
			uint64(row[4])<<32 | uint64(row[5])<<40 | uint64(row[6])<<48 | uint64(row[7])<<56
		out[0] = T(math.Float32frombits(uint32(w)))
		out[1] = T(math.Float32frombits(uint32(w >> 32)))
		out, row = out[2:], row[8:]
	}
	if len(out) == 1 && len(row) >= 4 {
		out[0] = T(math.Float32frombits(uint32(row[0]) | uint32(row[1])<<8 | uint32(row[2])<<16 | uint32(row[3])<<24))
	}
}

// Slab is the float64 form of a Block for computation: the halo-extended
// box a scan's row kernels read, decoded from the stored float32 blobs once
// (DecodeFrom) instead of widened at every tap. Bounds, NComp and the
// layout of Data are a Block's.
type Slab struct {
	Bounds grid.Box
	NComp  int
	Data   []float64
}

// Reset re-shapes the slab as Block.Reset does: the existing allocation is
// reused when it is large enough, and the contents are left undefined. It
// is the reuse hook of the scan's pooled slabs.
func (s *Slab) Reset(b grid.Box, nc int) {
	s.Bounds, s.NComp, s.Data = b, nc, resize(s.Data, b, nc)
}

// Offset returns the flat offset of (p, c) in Data; p must lie inside
// Bounds.
//
//turbdb:rowkernel
func (s *Slab) Offset(p grid.Point, c int) int { return offset(s.Bounds, s.NComp, p, c) }

// Strides returns the flat Data strides, in float64 elements, of a unit
// step along x, y and z.
//
//turbdb:rowkernel
func (s *Slab) Strides() (sx, sy, sz int) { return strides(s.Bounds, s.NComp) }

// At returns component c at point p, which must lie inside Bounds.
//
//turbdb:rowkernel
func (s *Slab) At(p grid.Point, c int) float64 { return s.Data[s.Offset(p, c)] }

// DecodeFrom is Block.DecodeFrom into a slab: each float32 of the blob is
// widened to float64 as it is decoded, the one conversion a stored value
// pays in a scan. A scan passes as region the part of its slab the kernel
// reads, so the rest stays as it was.
//
//turbdb:rowkernel
func (s *Slab) DecodeFrom(blob []byte, src, region grid.Box) {
	decode(s.Data, s.Bounds, s.NComp, blob, src, region)
}

// AppendPart appends to dst the Bytes form of the block over part cut out
// of blob, the Bytes form of a block over src with nc components: the rows
// of part, copied as they are. part must lie inside src and the caller has
// checked that len(blob) == ByteSize(src, nc). DecodeFrom of the result
// over part reads what DecodeFrom of blob over src reads there.
func AppendPart(dst, blob []byte, src, part grid.Box, nc int) []byte {
	snx, sny, _ := src.Size()
	row := (part.Hi.X - part.Lo.X) * nc * 4
	for z := part.Lo.Z; z < part.Hi.Z; z++ {
		for y := part.Lo.Y; y < part.Hi.Y; y++ {
			i := (((z-src.Lo.Z)*sny+y-src.Lo.Y)*snx + part.Lo.X - src.Lo.X) * nc * 4
			dst = append(dst, blob[i:i+row]...)
		}
	}
	return dst
}

// ByteSize returns the serialized size in bytes of a block over box b with
// nc components, without materializing it.
func ByteSize(b grid.Box, nc int) int { return b.NumPoints() * nc * 4 }
