package node

import (
	"context"

	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/sim"
)

// gather is gatherReads for a kernel that reads its whole halo box: the
// cover every kernel of half-width hw over rawFields can assemble from,
// which the allocation test and the assembly benchmark hand to any field.
func (n *Node) gather(ctx context.Context, wp *sim.Proc, rawFields []derived.RawInput, step int, shard []morton.Code, qbox grid.Box, hw int, pool *bufferPool) workerData {
	return n.gatherReads(ctx, wp, &derived.Field{Raws: rawFields}, step, shard, qbox, hw, pool)
}

// coverOf lists the atoms a scan of codes over qbox reads at half-width
// hw, by a predicate that shares no code with the scan's: an atom is read
// iff, periodically wrapped, it meets the face-band cover of some scanned
// atom's region of interest (its box cut by qbox) — the region stretched by
// hw along one axis at a time — or, when axes is false, the region
// stretched by hw along all three.
func coverOf(g grid.Grid, codes []morton.Code, qbox grid.Box, hw int, axes bool) map[morton.Code]bool {
	s, na := g.AtomSide, g.AtomsPerSide()
	// meets reports whether atom index a along an axis meets [lo−e, hi+e)
	// on the circle of the domain.
	meets := func(a, lo, hi, e int) bool {
		for _, shift := range []int{-g.N, 0, g.N} {
			if a*s+shift < hi+e && lo-e < (a+1)*s+shift {
				return true
			}
		}
		return false
	}
	read := make(map[morton.Code]bool)
	for _, c := range codes {
		roi := g.AtomBox(c).Intersect(qbox)
		if roi.Empty() {
			continue
		}
		lo := [3]int{roi.Lo.X, roi.Lo.Y, roi.Lo.Z}
		hi := [3]int{roi.Hi.X, roi.Hi.Y, roi.Hi.Z}
		for i := 0; i < na*na*na; i++ {
			at := [3]int{i % na, i / na % na, i / (na * na)}
			for stretched := 0; stretched < 3; stretched++ {
				in := true
				for k := range at {
					e := 0
					if k == stretched || !axes {
						e = hw
					}
					in = in && meets(at[k], lo[k], hi[k], e)
				}
				if in {
					read[g.AtomCode(grid.Point{X: at[0] * s, Y: at[1] * s, Z: at[2] * s})] = true
					break
				}
			}
		}
	}
	return read
}

// coverCounts is coverOf as the Breakdown of node n counts it: AtomsRead
// the atoms n owns, HaloAtoms the atoms its peers own.
func coverCounts(n *Node, codes []morton.Code, qbox grid.Box, hw int, axes bool) (read, halo int) {
	for c := range coverOf(n.Grid(), codes, qbox, hw, axes) {
		if n.Owned().Contains(c) {
			read++
		} else {
			halo++
		}
	}
	return read, halo
}
