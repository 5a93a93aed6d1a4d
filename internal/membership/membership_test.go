package membership

import (
	"reflect"
	"testing"

	"github.com/turbdb/turbdb/internal/morton"
)

func TestPlacementInvariants(t *testing.T) {
	domain := morton.Range{Lo: 0, Hi: 64}
	p, err := Place(domain, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Ranges partition the domain.
	var cells uint64
	lo := domain.Lo
	for i, r := range p.Ranges {
		if r.Lo != lo {
			t.Fatalf("range %d starts at %v, want %v", i, r.Lo, lo)
		}
		lo = r.Hi
		cells += r.CellCount()
	}
	if lo != domain.Hi || cells != domain.CellCount() {
		t.Fatalf("ranges do not cover the domain: end %v, %d cells", lo, cells)
	}
	// Owners: primary first, k owners each, ring order.
	for i, owners := range p.Owners {
		if len(owners) != 2 {
			t.Fatalf("range %d has %d owners", i, len(owners))
		}
		if owners[0] != i {
			t.Fatalf("range %d primary = %d, want %d", i, owners[0], i)
		}
		if owners[1] != (i+1)%len(p.Owners) {
			t.Fatalf("range %d replica = %d", i, owners[1])
		}
	}
	// Deterministic: same inputs, same placement.
	p2, err := Place(domain, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, p2) {
		t.Fatal("placement is not deterministic")
	}
}

func TestPlacementLookups(t *testing.T) {
	domain := morton.Range{Lo: 0, Hi: 8}
	p, err := Place(domain, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 owns its primary (range 1) and replicates range 0.
	if got := p.RangesOf(1); !reflect.DeepEqual(got, []morton.Range{p.Ranges[0], p.Ranges[1]}) {
		t.Fatalf("RangesOf(1) = %v", got)
	}
	for _, r := range p.Ranges {
		for c := r.Lo; c < r.Hi; c++ {
			owners := p.OwnersOf(c)
			if len(owners) != 2 {
				t.Fatalf("OwnersOf(%v) = %v", c, owners)
			}
		}
	}
	if got := p.OwnersOf(morton.Code(99)); got != nil {
		t.Fatalf("OwnersOf outside the domain = %v", got)
	}
}

func TestPlacementErrors(t *testing.T) {
	domain := morton.Range{Lo: 0, Hi: 4}
	for _, n := range []int{0, -1} {
		if _, err := Place(domain, n, 2); err == nil {
			t.Fatalf("%d nodes accepted", n)
		}
	}
	if _, err := Place(domain, 5, 2); err == nil {
		t.Fatal("more nodes than cells accepted")
	}
	// k clamps to the node count.
	p, err := Place(domain, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Owners[0]) != 2 {
		t.Fatalf("k not clamped: %v", p.Owners[0])
	}
}

// holdingsOf lists what each node of a placement holds, its primary first
// and then its replica ranges in range order, as a node's store reports
// them.
func holdingsOf(p Placement) [][]morton.Range {
	held := make([][]morton.Range, len(p.Ranges))
	for i := range held {
		held[i] = []morton.Range{p.Ranges[i]}
		for _, r := range p.RangesOf(i) {
			if r != p.Ranges[i] {
				held[i] = append(held[i], r)
			}
		}
	}
	return held
}

// TestDescribeInvertsPlace: for n = 1…8 nodes and k = 1…n, the holdings of
// Place(domain, n, k) describe exactly that placement — ranges and replica
// order.
func TestDescribeInvertsPlace(t *testing.T) {
	domain := morton.Range{Lo: 0, Hi: 512}
	for n := 1; n <= 8; n++ {
		for k := 1; k <= n; k++ {
			p, err := Place(domain, n, k)
			if err != nil {
				t.Fatal(err)
			}
			if got := Describe(holdingsOf(p)); !reflect.DeepEqual(got, p) {
				t.Errorf("n = %d, k = %d: described %+v, placed %+v", n, k, got, p)
			}
		}
	}
}

// TestDescribeUnknownHoldings pins Describe on holdings that are not a
// whole placement: a node whose holdings are unknown loses its primary
// claim, and its range goes to the nodes holding it as a replica.
func TestDescribeUnknownHoldings(t *testing.T) {
	domain := morton.Range{Lo: 0, Hi: 16}
	p, err := Place(domain, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{2, 3, 0}; !reflect.DeepEqual(p.Owners[2], want) {
		t.Fatalf("placed range 2 owners %v, want %v", p.Owners[2], want)
	}
	held := holdingsOf(p)
	held[2] = nil
	got := Describe(held)
	if !reflect.DeepEqual(got.Ranges, p.Ranges) {
		t.Fatalf("ranges %v, want %v", got.Ranges, p.Ranges)
	}
	want := [][]int{{0, 1}, {1, 3}, {0, 3}, {3, 0, 1}}
	if !reflect.DeepEqual(got.Owners, want) {
		t.Errorf("owners %v, want %v: node 2 unknown, range 2 to its replica holders in id order", got.Owners, want)
	}

	// At k = 1 an unknown node's range is held by no one: it is missing.
	p1, err := Place(domain, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	got = Describe([][]morton.Range{nil, {p1.Ranges[1]}})
	if !reflect.DeepEqual(got.Ranges, p1.Ranges[1:]) || !reflect.DeepEqual(got.Owners, [][]int{{1}}) {
		t.Errorf("described %+v, want only range 1, owned by node 1", got)
	}

	// Two nodes claiming one primary keep two ranges: the table overlaps.
	got = Describe([][]morton.Range{{p1.Ranges[0]}, {p1.Ranges[1]}, {p1.Ranges[0]}})
	if want := []morton.Range{p1.Ranges[0], p1.Ranges[0], p1.Ranges[1]}; !reflect.DeepEqual(got.Ranges, want) {
		t.Errorf("ranges %v, want %v", got.Ranges, want)
	}
}
