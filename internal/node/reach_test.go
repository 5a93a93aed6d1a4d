package node

import (
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/morton"
)

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
		// Only atoms meeting the region stretched by hw along every axis
		// can be read; the predicate decides among them.
		var near [3][]int
		for k := range near {
			for a := 0; a < na; a++ {
				if meets(a, lo[k], hi[k], hw) {
					near[k] = append(near[k], a)
				}
			}
		}
		for _, z := range near[2] {
			for _, y := range near[1] {
				for _, x := range near[0] {
					at := [3]int{x, y, z}
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
