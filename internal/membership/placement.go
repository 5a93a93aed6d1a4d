// Package membership holds the cluster's routing table: the deterministic
// k-way replica placement of Morton ranges over a fixed set of nodes, and
// the table read back off what the nodes hold.
//
// A cluster's nodes are the ones it starts with, as in the paper's system,
// whose Morton partition is set at ingest, so a table is made once and
// never changes. How healthy a node is lives in its circuit breaker
// (faulttol.HealthOrder), not here: health never moves data.
package membership

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/turbdb/turbdb/internal/morton"
)

// Placement is the routing table: contiguous Morton ranges, each with the
// nodes holding it, primary first. Two functions make one: Place derives it
// from (domain, node count, k), a pure function every node and the
// mediator can evaluate alike, and Describe reads it off what nodes hold.
// A table is shared read-only once made — the mediator hands out its table
// without copying it.
//
// A placed table over n nodes keeps these invariants:
//
//   - Ranges partition the domain: they are disjoint, contiguous, sorted,
//     and cover [domain.Lo, domain.Hi) with atom granularity.
//   - Ranges[i] is node i's primary range and Owners[i][0] == i;
//     Owners[i][1:] are the replicas, the next nodes along the ring.
//   - len(Owners[i]) == min(k, n) for every i.
//
// A described table only has its ranges sorted; the mediator refuses one
// whose non-empty ranges do not tile the domain.
type Placement struct {
	// Ranges are the table's contiguous Morton ranges; Place and Describe
	// sort them.
	Ranges []morton.Range
	// Owners[i] lists the nodes holding Ranges[i], primary first.
	Owners [][]int
}

// Place derives the k-way replica placement of domain over nodes 0…n−1. k
// is clamped to [1, n]; at k = 1 every range of the equal split has its one
// owner. n must not exceed the domain's cells (a node with no atoms cannot
// hold a store).
func Place(domain morton.Range, n, k int) (Placement, error) {
	if n < 1 {
		return Placement{}, fmt.Errorf("membership: placement needs at least one node")
	}
	if uint64(n) > domain.CellCount() {
		return Placement{}, fmt.Errorf("membership: %d nodes exceed the domain's %d cells", n, domain.CellCount())
	}
	k = min(max(k, 1), n)
	p := Placement{Ranges: domain.Split(n, 1), Owners: make([][]int, n)}
	for i := range p.Owners {
		p.Owners[i] = make([]int, k)
		for j := range k {
			p.Owners[i][j] = (i + j) % n
		}
	}
	return p, nil
}

// RangesOf returns every non-empty range id owns (primary and replica),
// sorted by range order.
func (p Placement) RangesOf(id int) []morton.Range {
	var out []morton.Range
	for i, owners := range p.Owners {
		if p.Ranges[i].Empty() {
			continue
		}
		for _, o := range owners {
			if o == id {
				out = append(out, p.Ranges[i])
				break
			}
		}
	}
	return out
}

// OwnersOf returns the owner list (primary first) of the range containing
// code, or nil when no range contains it.
func (p Placement) OwnersOf(code morton.Code) []int {
	for i, r := range p.Ranges {
		if r.Contains(code) {
			return p.Owners[i]
		}
	}
	return nil
}

// Describe reads the routing table off what nodes hold: held[i] lists node
// i's ranges, its primary first, and nil means node i's holdings are
// unknown. Every known primary is a range, owned first by its node; every
// other held range that no primary covers is a range whose primary is
// unknown. The nodes whose ranges cover a range follow its primary in ring
// order after it — Place's order, so the holdings of a placed cluster
// describe exactly that placement — or in id order when its primary is
// unknown. Every owner is an id in 0…len(held)−1, every range has at least
// one owner (the node that listed it), and Ranges and Owners have one entry
// each per range. Two nodes claiming one primary give two equal ranges,
// which the mediator's tiling check refuses.
func Describe(held [][]morton.Range) Placement {
	type entry struct {
		r       morton.Range
		primary int // -1 when unknown
	}
	var es []entry
	for i, hs := range held {
		if len(hs) > 0 {
			es = append(es, entry{hs[0], i})
		}
	}
	for _, hs := range held {
		for _, r := range hs[min(1, len(hs)):] {
			if !slices.ContainsFunc(es, func(e entry) bool { return covers(e.r, r) }) {
				es = append(es, entry{r, -1})
			}
		}
	}
	slices.SortStableFunc(es, func(a, b entry) int { return cmp.Compare(a.r.Lo, b.r.Lo) })

	n := len(held)
	p := Placement{Ranges: make([]morton.Range, len(es)), Owners: make([][]int, len(es))}
	for i, e := range es {
		p.Ranges[i] = e.r
		if e.primary >= 0 {
			p.Owners[i] = []int{e.primary}
		}
		// From an unknown primary (-1) the ring walk is 0, 1, …, n−1.
		for j := 1; j <= n; j++ {
			h := (e.primary + j) % n
			if h != e.primary && slices.ContainsFunc(held[h], func(hr morton.Range) bool { return covers(hr, e.r) }) {
				p.Owners[i] = append(p.Owners[i], h)
			}
		}
	}
	return p
}

// covers reports whether a contains every code of b.
func covers(a, b morton.Range) bool { return a.Lo <= b.Lo && b.Hi <= a.Hi }
