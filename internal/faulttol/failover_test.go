package faulttol

import (
	"reflect"
	"slices"
	"testing"
)

// TestFailover pins the rounds of the one replica failover loop: which
// holder each key goes to in which round, what comes back spent, and what
// counts as a reroute. fail maps a holder to the error it answers every
// round; a holder absent from it answers.
func TestFailover(t *testing.T) {
	down := Transientf("holder down")
	gone := Transientf("holder gone")
	bad := Permanent("bad request")
	tests := []struct {
		name     string
		holders  [][]int
		fail     map[int]error
		rounds   [][]Group
		spent    []Spent
		reroutes int
		err      error
		allocs   float64 // if > 0, the most the loop may allocate with a serve that allocates nothing: its three slices, none per key or per group
	}{
		{"every first holder answers: one round, no reroutes",
			[][]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, nil,
			[][]Group{{{0, []int{0}}, {1, []int{1}}, {2, []int{2}}, {3, []int{3}}}},
			nil, 0, nil, 3},
		{"a transient failure moves only that group's keys",
			[][]int{{0, 1}, {1, 0}, {0, 1}}, map[int]error{1: down},
			[][]Group{{{0, []int{0, 2}}, {1, []int{1}}}, {{0, []int{1}}}},
			nil, 1, nil, 0},
		{"a key with no holders comes back spent, holder -1 and no error",
			[][]int{{}, {0}}, nil,
			[][]Group{{{0, []int{1}}}},
			[]Spent{{0, -1, nil}}, 0, nil, 0},
		{"an exhausted key reports its last holder and its last error",
			[][]int{{0, 1}}, map[int]error{0: down, 1: gone},
			[][]Group{{{0, []int{0}}}, {{1, []int{0}}}},
			[]Spent{{0, 1, gone}}, 1, nil, 0},
		{"a permanent error ends the loop after its round",
			[][]int{{0, 1}, {2, 3}}, map[int]error{0: down, 2: bad},
			[][]Group{{{0, []int{0}}, {2, []int{1}}}},
			nil, 1, bad, 0},
		{"groups arrive with holders ascending and keys in input order",
			[][]int{{5, 2}, {3, 2}, {4}, {3}}, map[int]error{3: down, 5: down},
			[][]Group{{{3, []int{1, 3}}, {4, []int{2}}, {5, []int{0}}}, {{2, []int{0, 1}}}},
			[]Spent{{3, 3, down}}, 2, nil, 0},
		{"a key with no next holder is not a reroute",
			[][]int{{0}, {0, 1}}, map[int]error{0: down},
			[][]Group{{{0, []int{0, 1}}}, {{1, []int{1}}}},
			[]Spent{{0, 0, down}}, 1, nil, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var rounds [][]Group
			spent, reroutes, err := Failover(tt.holders, func(groups []Group) []error {
				errs := make([]error, len(groups))
				round := make([]Group, len(groups))
				for i, g := range groups {
					round[i] = Group{Holder: g.Holder, Keys: slices.Clone(g.Keys)}
					errs[i] = tt.fail[g.Holder]
				}
				rounds = append(rounds, round)
				return errs
			})
			if !reflect.DeepEqual(rounds, tt.rounds) {
				t.Errorf("rounds = %v, want %v", rounds, tt.rounds)
			}
			if !reflect.DeepEqual(spent, tt.spent) {
				t.Errorf("spent = %v, want %v", spent, tt.spent)
			}
			if reroutes != tt.reroutes || err != tt.err {
				t.Errorf("reroutes, err = %d, %v, want %d, %v", reroutes, err, tt.reroutes, tt.err)
			}
			if tt.allocs > 0 {
				errs := make([]error, len(tt.holders))
				serve := func(groups []Group) []error { return errs[:len(groups)] }
				if got := testing.AllocsPerRun(100, func() { _, _, _ = Failover(tt.holders, serve) }); got > tt.allocs {
					t.Errorf("Failover allocates %v times, want at most %v", got, tt.allocs)
				}
			}
		})
	}
}
