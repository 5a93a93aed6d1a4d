package membership

import (
	"reflect"
	"testing"

	"github.com/turbdb/turbdb/internal/morton"
)

func TestTableLifecycle(t *testing.T) {
	tb := NewTable(0, 1, 2)
	if got := tb.Serving(); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("serving = %v", got)
	}
	v0 := tb.Version()

	if err := tb.Join(3); err != nil {
		t.Fatal(err)
	}
	if s := tb.State(3); s != Joining {
		t.Fatalf("state(3) = %v", s)
	}
	if got := tb.Serving(); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("joining node serves early: %v", got)
	}
	if err := tb.Join(1); err == nil {
		t.Fatal("re-joining a live member should fail")
	}
	if err := tb.Activate(3); err != nil {
		t.Fatal(err)
	}
	if got := tb.Serving(); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Fatalf("serving after activate = %v", got)
	}
	if err := tb.Activate(3); err == nil {
		t.Fatal("double activate should fail")
	}

	if err := tb.Leave(2); err != nil {
		t.Fatal(err)
	}
	if s := tb.State(2); s != Leaving || !s.Serving() {
		t.Fatalf("leaving node must keep serving, state = %v", s)
	}
	tb.Remove(2)
	if got := tb.Serving(); !reflect.DeepEqual(got, []int{0, 1, 3}) {
		t.Fatalf("serving after remove = %v", got)
	}
	if s := tb.State(2); s != Left {
		t.Fatalf("state(2) = %v", s)
	}
	if tb.Version() <= v0 {
		t.Fatalf("version did not advance: %d -> %d", v0, tb.Version())
	}
}

func TestTableHealthTransitions(t *testing.T) {
	tb := NewTable(0, 1)
	tb.MarkSuspect(0)
	if s := tb.State(0); s != Suspect || !s.Serving() {
		t.Fatalf("suspect must keep serving, state = %v", s)
	}
	tb.MarkAlive(0)
	if s := tb.State(0); s != Alive {
		t.Fatalf("state(0) = %v", s)
	}
	// Health transitions never touch non-Alive/Suspect states.
	if err := tb.Leave(1); err != nil {
		t.Fatal(err)
	}
	tb.MarkSuspect(1)
	if s := tb.State(1); s != Leaving {
		t.Fatalf("suspect must not override draining, state = %v", s)
	}
	v := tb.Version()
	tb.MarkAlive(1) // no-op
	if tb.Version() != v {
		t.Fatal("no-op transition bumped the version")
	}
}

func TestPlacementInvariants(t *testing.T) {
	domain := morton.Range{Lo: 0, Hi: 64}
	members := []int{4, 0, 2, 1, 3} // unsorted on purpose
	p, err := Place(domain, members, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Members, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("members = %v", p.Members)
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
		if owners[0] != p.Members[i] {
			t.Fatalf("range %d primary = %d, want %d", i, owners[0], p.Members[i])
		}
		if owners[1] != p.Members[(i+1)%len(p.Members)] {
			t.Fatalf("range %d replica = %d", i, owners[1])
		}
	}
	// Deterministic: same inputs, same placement.
	p2, err := Place(domain, []int{0, 1, 2, 3, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, p2) {
		t.Fatal("placement is not deterministic")
	}
}

func TestPlacementLookups(t *testing.T) {
	domain := morton.Range{Lo: 0, Hi: 8}
	p, err := Place(domain, []int{0, 1, 2, 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := p.PrimaryOf(2)
	if !ok || r != p.Ranges[2] {
		t.Fatalf("PrimaryOf(2) = %v, %v", r, ok)
	}
	if _, ok := p.PrimaryOf(9); ok {
		t.Fatal("PrimaryOf of a non-member succeeded")
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
	if _, err := Place(domain, nil, 2); err == nil {
		t.Fatal("empty member set accepted")
	}
	if _, err := Place(domain, []int{0, 1, 2, 3, 4}, 2); err == nil {
		t.Fatal("more members than cells accepted")
	}
	if _, err := Place(domain, []int{0, 1, 1}, 2); err == nil {
		t.Fatal("duplicate members accepted")
	}
	// k clamps to the member count.
	p, err := Place(domain, []int{0, 1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Owners[0]) != 2 {
		t.Fatalf("k not clamped: %v", p.Owners[0])
	}
}

// TestFailoverOrder pins the one membership-based replica order the
// mediator's fan-out and the cluster's halo fetcher route by.
func TestFailoverOrder(t *testing.T) {
	tb := NewTable(0, 1, 2, 3, 4, 5)
	tb.MarkSuspect(1)
	if err := tb.Leave(2); err != nil {
		t.Fatal(err)
	}
	tb.Remove(3)
	if err := tb.Join(6); err != nil {
		t.Fatal(err)
	}
	demote4 := func(id int) bool { return id == 4 }
	tests := []struct {
		name    string
		table   *Table
		owners  []int
		demoted func(int) bool
		want    []int
	}{
		{"no table: every owner Alive, in placement order", nil, []int{5, 0, 4}, nil, []int{5, 0, 4}},
		{"Alive before Suspect and Leaving, placement order within each", tb, []int{2, 1, 5, 0}, nil, []int{5, 0, 2, 1}},
		{"Left and Joining members do not serve", tb, []int{3, 6, 0}, nil, []int{0}},
		{"a demoted member goes behind every other", tb, []int{4, 1, 0}, demote4, []int{0, 1, 4}},
		{"demotion keeps the class order", tb, []int{1, 2, 0}, func(int) bool { return true }, []int{0, 1, 2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.table.FailoverOrder(tt.owners, tt.demoted); !reflect.DeepEqual(got, tt.want) {
				t.Errorf("FailoverOrder(%v) = %v, want %v", tt.owners, got, tt.want)
			}
		})
	}
}
