package membership

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"github.com/turbdb/turbdb/internal/morton"
)

// Placement is the routing table: contiguous Morton ranges, each with the
// nodes holding it, primary first. Two functions make one: Place derives it
// from (domain, member set, k), a pure function every node and the
// mediator can evaluate alike, and Describe reads it off what nodes hold.
// A table is shared read-only once made — the mediator installs and hands
// out its table without copying it.
//
// A placed table keeps these invariants (relied on by the cluster
// rebalancer):
//
//   - Ranges partition the domain: they are disjoint, contiguous, sorted,
//     and cover [domain.Lo, domain.Hi) with atom granularity.
//   - Ranges[i] is member Members[i]'s primary range and Owners[i][0] ==
//     Members[i]; Owners[i][1:] are the replicas, the next members along
//     the sorted ring.
//   - len(Owners[i]) == min(k, len(Members)) for every i.
//
// A described table only has its ranges sorted; the mediator refuses to
// install one whose non-empty ranges do not tile the domain.
type Placement struct {
	// Version numbers the table among those a mediator installed (1 for
	// the first); Place and Describe leave it zero.
	Version uint64
	// Members is the sorted member set the table was made over.
	Members []int
	// Ranges are the table's contiguous Morton ranges; Place and Describe
	// sort them.
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

// PrimaryOf returns id's primary range in a placed table (false if id is
// not a member).
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

// Describe reads the routing table off what nodes hold: held[i] lists node
// i's ranges, its primary first, and nil means node i's holdings are
// unknown. Every known primary is a range, owned first by its node; every
// other held range that no primary covers is a range whose primary is
// unknown. The nodes whose ranges cover a range follow its primary in ring
// order after it — Place's order, so the holdings of a placed cluster
// describe exactly that placement — or in id order when its primary is
// unknown. Members are the ids 0…len(held)−1. Two nodes claiming one
// primary give two equal ranges, which the mediator's tiling check refuses.
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
	p := Placement{Members: make([]int, n), Ranges: make([]morton.Range, len(es)), Owners: make([][]int, len(es))}
	for i := range p.Members {
		p.Members[i] = i
	}
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
