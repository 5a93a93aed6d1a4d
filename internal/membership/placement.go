package membership

import (
	"fmt"
	"sort"

	"github.com/turbdb/turbdb/internal/morton"
)

// Placement maps contiguous Morton ranges to k owner nodes each. It is a
// pure function of (domain, sorted member set, k) — every node and the
// mediator derive the identical placement independently, so no placement
// state is ever exchanged.
//
// Invariants (relied on by the mediator's failover fan-out and the cluster
// rebalancer):
//
//   - Ranges partition the domain: they are disjoint, contiguous, sorted,
//     and cover [domain.Lo, domain.Hi) with atom granularity.
//   - Ranges[i] is member Members[i]'s primary range and Owners[i][0] ==
//     Members[i]; Owners[i][1:] are the replicas, the next members along
//     the sorted ring.
//   - len(Owners[i]) == min(k, len(Members)) for every i.
type Placement struct {
	// Members is the sorted serving member set the placement was derived
	// from.
	Members []int
	// Ranges[i] is the i-th contiguous Morton range (member Members[i]'s
	// primary).
	Ranges []morton.Range
	// Owners[i] lists the nodes holding Ranges[i], primary first.
	Owners [][]int
}

// Place derives the k-way replica placement of domain over members. k is
// clamped to [1, len(members)]; at k = 1 every range of the equal split has
// its one owner.
// members must not outnumber the domain's cells (a node with no atoms
// cannot hold a store).
func Place(domain morton.Range, members []int, k int) (Placement, error) {
	if len(members) == 0 {
		return Placement{}, fmt.Errorf("membership: placement needs at least one member")
	}
	if uint64(len(members)) > domain.CellCount() {
		return Placement{}, fmt.Errorf("membership: %d members exceed the domain's %d cells",
			len(members), domain.CellCount())
	}
	if k < 1 {
		k = 1
	}
	if k > len(members) {
		k = len(members)
	}
	ms := append([]int(nil), members...)
	sort.Ints(ms)
	for i := 1; i < len(ms); i++ {
		if ms[i] == ms[i-1] {
			return Placement{}, fmt.Errorf("membership: duplicate member %d", ms[i])
		}
	}
	p := Placement{
		Members: ms,
		Ranges:  domain.Split(len(ms), 1),
		Owners:  make([][]int, len(ms)),
	}
	for i := range ms {
		p.Owners[i] = make([]int, k)
		for j := 0; j < k; j++ {
			p.Owners[i][j] = ms[(i+j)%len(ms)]
		}
	}
	return p, nil
}

// PrimaryOf returns id's primary range (false if id is not a member).
func (p Placement) PrimaryOf(id int) (morton.Range, bool) {
	for i, m := range p.Members {
		if m == id {
			return p.Ranges[i], true
		}
	}
	return morton.Range{}, false
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
