// Package grid defines the spatial geometry shared by the whole system: the
// regular 3-D simulation grid, integer boxes over it, the decomposition of a
// time-step into small cubic database atoms, halo (ghost-zone) arithmetic for
// kernel computations, and periodic wrapping.
//
// Conventions follow the paper: the data for each dataset reside on a regular
// three-dimensional spatial grid of side N (a power of two), each time-step
// is spatially subdivided into atoms of side 8 (configurable), and each atom
// is keyed by the Morton code of its lower-left corner.
package grid

import (
	"fmt"
	"slices"

	"github.com/turbdb/turbdb/internal/morton"
)

// DefaultAtomSide is the side length of a database atom (8³ points per atom
// in the production JHTDB).
const DefaultAtomSide = 8

// Point is an integer grid location.
type Point struct {
	X, Y, Z int
}

// Add returns p translated by (dx, dy, dz).
func (p Point) Add(dx, dy, dz int) Point { return Point{p.X + dx, p.Y + dy, p.Z + dz} }

// Box is a half-open axis-aligned box of grid points: Lo ≤ p < Hi per axis.
type Box struct {
	Lo, Hi Point
}

// Empty reports whether the box contains no points.
//
//turbdb:rowkernel
func (b Box) Empty() bool {
	return b.Hi.X <= b.Lo.X || b.Hi.Y <= b.Lo.Y || b.Hi.Z <= b.Lo.Z
}

// Size returns the box extents (nx, ny, nz); all zero when empty.
//
//turbdb:rowkernel
func (b Box) Size() (nx, ny, nz int) {
	if b.Empty() {
		return 0, 0, 0
	}
	return b.Hi.X - b.Lo.X, b.Hi.Y - b.Lo.Y, b.Hi.Z - b.Lo.Z
}

// NumPoints returns the number of grid points in the box.
func (b Box) NumPoints() int {
	nx, ny, nz := b.Size()
	return nx * ny * nz
}

// Contains reports whether p lies in the box.
func (b Box) Contains(p Point) bool {
	return p.X >= b.Lo.X && p.X < b.Hi.X &&
		p.Y >= b.Lo.Y && p.Y < b.Hi.Y &&
		p.Z >= b.Lo.Z && p.Z < b.Hi.Z
}

// ContainsBox reports whether the whole of inner lies within b.
func (b Box) ContainsBox(inner Box) bool {
	if inner.Empty() {
		return true
	}
	return inner.Lo.X >= b.Lo.X && inner.Hi.X <= b.Hi.X &&
		inner.Lo.Y >= b.Lo.Y && inner.Hi.Y <= b.Hi.Y &&
		inner.Lo.Z >= b.Lo.Z && inner.Hi.Z <= b.Hi.Z
}

// Intersect returns the intersection of two boxes (possibly empty).
//
//turbdb:rowkernel
func (b Box) Intersect(o Box) Box {
	r := Box{
		Lo: Point{max(b.Lo.X, o.Lo.X), max(b.Lo.Y, o.Lo.Y), max(b.Lo.Z, o.Lo.Z)},
		Hi: Point{min(b.Hi.X, o.Hi.X), min(b.Hi.Y, o.Hi.Y), min(b.Hi.Z, o.Hi.Z)},
	}
	if r.Empty() {
		return Box{}
	}
	return r
}

// Union returns the bounding box of two boxes; an empty one adds nothing.
func (b Box) Union(o Box) Box {
	if b.Empty() {
		return o
	}
	if o.Empty() {
		return b
	}
	return Box{
		Lo: Point{min(b.Lo.X, o.Lo.X), min(b.Lo.Y, o.Lo.Y), min(b.Lo.Z, o.Lo.Z)},
		Hi: Point{max(b.Hi.X, o.Hi.X), max(b.Hi.Y, o.Hi.Y), max(b.Hi.Z, o.Hi.Z)},
	}
}

// Expand grows the box by h points on every side (the halo needed by a
// kernel of half-width h). Negative h shrinks.
func (b Box) Expand(h int) Box {
	return Box{
		Lo: Point{b.Lo.X - h, b.Lo.Y - h, b.Lo.Z - h},
		Hi: Point{b.Hi.X + h, b.Hi.Y + h, b.Hi.Z + h},
	}
}

// String renders the box for logs and errors.
func (b Box) String() string {
	return fmt.Sprintf("[%d,%d,%d → %d,%d,%d)", b.Lo.X, b.Lo.Y, b.Lo.Z, b.Hi.X, b.Hi.Y, b.Hi.Z)
}

// Grid describes the geometry of one dataset: a periodic cube of side N
// points with physical spacing Dx, decomposed into atoms of side AtomSide.
type Grid struct {
	// N is the number of grid points per axis; must be a power of two and a
	// multiple of AtomSide.
	N int
	// AtomSide is the side length of a database atom (8 in production).
	AtomSide int
	// Dx is the physical grid spacing (e.g. 2π/N for a 2π-periodic domain).
	Dx float64
}

// New validates and constructs a Grid. dx must be positive; n must be a
// power of two and a multiple of atomSide; atomSide must be a power of two.
func New(n, atomSide int, dx float64) (Grid, error) {
	switch {
	case n <= 0 || !morton.IsPow2(uint32(n)):
		return Grid{}, fmt.Errorf("grid: side %d is not a positive power of two", n)
	case atomSide <= 0 || !morton.IsPow2(uint32(atomSide)):
		return Grid{}, fmt.Errorf("grid: atom side %d is not a positive power of two", atomSide)
	case n%atomSide != 0:
		return Grid{}, fmt.Errorf("grid: side %d is not a multiple of atom side %d", n, atomSide)
	case dx <= 0:
		return Grid{}, fmt.Errorf("grid: spacing %g must be positive", dx)
	}
	return Grid{N: n, AtomSide: atomSide, Dx: dx}, nil
}

// Domain returns the full box [0,N)³.
func (g Grid) Domain() Box {
	return Box{Hi: Point{g.N, g.N, g.N}}
}

// PointsPerAtom returns AtomSide³.
func (g Grid) PointsPerAtom() int {
	return g.AtomSide * g.AtomSide * g.AtomSide
}

// AtomsPerSide returns N / AtomSide.
func (g Grid) AtomsPerSide() int { return g.N / g.AtomSide }

// NumAtoms returns the total number of atoms in one time-step.
func (g Grid) NumAtoms() int {
	a := g.AtomsPerSide()
	return a * a * a
}

// Wrap maps any integer coordinate onto [0, N) periodically.
func (g Grid) Wrap(c int) int {
	c %= g.N
	if c < 0 {
		c += g.N
	}
	return c
}

// WrapPoint applies Wrap to each coordinate of p.
func (g Grid) WrapPoint(p Point) Point {
	return Point{g.Wrap(p.X), g.Wrap(p.Y), g.Wrap(p.Z)}
}

// AtomCode returns the Morton code of the atom containing grid point p
// (after periodic wrapping). Atom codes are the Morton codes of atom-grid
// coordinates, i.e. the code of (x/AtomSide, y/AtomSide, z/AtomSide), so
// consecutive codes enumerate atoms, not points.
func (g Grid) AtomCode(p Point) morton.Code {
	p = g.WrapPoint(p)
	return morton.Encode(
		uint32(p.X/g.AtomSide),
		uint32(p.Y/g.AtomSide),
		uint32(p.Z/g.AtomSide),
	)
}

// AtomOrigin returns the lower-left grid point of the atom with the given
// Morton code.
func (g Grid) AtomOrigin(code morton.Code) Point {
	x, y, z := code.Decode()
	return Point{int(x) * g.AtomSide, int(y) * g.AtomSide, int(z) * g.AtomSide}
}

// AtomBox returns the box covered by the atom with the given code.
func (g Grid) AtomBox(code morton.Code) Box {
	o := g.AtomOrigin(code)
	return Box{Lo: o, Hi: Point{o.X + g.AtomSide, o.Y + g.AtomSide, o.Z + g.AtomSide}}
}

// AtomRange returns the Morton range covering every atom of one time-step.
func (g Grid) AtomRange() morton.Range {
	return morton.CubeRange(uint32(g.AtomsPerSide()))
}

// AtomsCovering returns the Morton codes of all atoms that intersect box b
// after periodic wrapping. The box may extend beyond the domain (as halo
// regions do); atoms are deduplicated and returned in ascending code order
// (callers rely on the ordering for efficient range reads).
//
// The box extent must not exceed the domain size on any axis, otherwise the
// wrapped box would self-overlap.
func (g Grid) AtomsCovering(b Box) ([]morton.Code, error) { return g.AtomsCoveringWhere(b, nil) }

// AtomsCoveringWhere is AtomsCovering of the atoms keep accepts; a nil keep
// accepts every atom. keep sees a code once per tile, before the sort, so a
// caller that keeps a fraction of the box sorts only that fraction.
func (g Grid) AtomsCoveringWhere(b Box, keep func(morton.Code) bool) ([]morton.Code, error) {
	if b.Empty() {
		return nil, nil
	}
	nx, ny, nz := b.Size()
	if nx > g.N || ny > g.N || nz > g.N {
		return nil, fmt.Errorf("grid: box %v exceeds domain side %d", b, g.N)
	}
	var out []morton.Code
	g.ForEachTile(b, func(_ Box, c morton.Code) bool {
		if keep == nil || keep(c) {
			out = append(out, c)
		}
		return true
	})
	// Tiles come x-fastest, and a box that leaves the domain can reach one
	// atom through two tiles (the far side wraps onto the near one).
	slices.Sort(out)
	return slices.Compact(out), nil
}

// ForEachTile calls fn for every atom-sized tile that intersects box b, x
// fastest, with the tile's *unwrapped* box (b may extend beyond the domain,
// as halo boxes do) and the code of the stored atom that supplies its data
// after periodic wrapping: the atom's points land in the tile unchanged, so
// the tile box is all a periodic halo assembly needs. It stops early and
// returns false when fn does.
func (g Grid) ForEachTile(b Box, fn func(tile Box, code morton.Code) bool) bool {
	if b.Empty() {
		return true
	}
	s := g.AtomSide
	for az := floorDiv(b.Lo.Z, s); az*s < b.Hi.Z; az++ {
		for ay := floorDiv(b.Lo.Y, s); ay*s < b.Hi.Y; ay++ {
			for ax := floorDiv(b.Lo.X, s); ax*s < b.Hi.X; ax++ {
				o := Point{ax * s, ay * s, az * s}
				if !fn(Box{Lo: o, Hi: o.Add(s, s, s)}, g.AtomCode(o)) {
					return false
				}
			}
		}
	}
	return true
}

// floorDiv divides rounding toward negative infinity.
func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
