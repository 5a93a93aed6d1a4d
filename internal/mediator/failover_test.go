package mediator

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/membership"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/node"
	"github.com/turbdb/turbdb/internal/query"
)

// transientErr is a minimal availability-class failure for the tables.
type transientErr struct{ msg string }

func (e transientErr) Error() string   { return e.msg }
func (e transientErr) Transient() bool { return true }

// TestCollectRangeFailures pins the replicated coverage accounting: a
// replica absorbing a primary failure never reaches this function (the
// range is simply not failed), so Coverage stays 1; ranges with every
// replica down degrade fractionally in partial mode and fail strict mode.
func TestCollectRangeFailures(t *testing.T) {
	r := func(lo, hi uint64) morton.Range {
		return morton.Range{Lo: morton.Code(lo), Hi: morton.Code(hi)}
	}
	down := transientErr{msg: "connection refused"}
	cases := []struct {
		name         string
		allowPartial bool
		failures     []NodeFailure
		total        uint64
		ranges       int
		wantErr      string  // "" = no error
		wantCoverage float64 // checked when wantErr == ""
		wantFailures int
		wantReroutes bool // unused here, documents intent
	}{
		{
			name:         "no failures means full coverage",
			allowPartial: false,
			total:        16, ranges: 4,
			wantCoverage: 1,
		},
		{
			name:         "replica absorbed primary death: empty failures, coverage 1",
			allowPartial: true,
			total:        16, ranges: 4,
			wantCoverage: 1,
		},
		{
			name:         "strict mode fails on a fully-down range",
			allowPartial: false,
			failures:     []NodeFailure{{Node: 2, Owned: r(8, 12), Err: down}},
			total:        16, ranges: 4,
			wantErr: "mediator: node 2",
		},
		{
			name:         "partial mode degrades fractionally when all replicas of a range are down",
			allowPartial: true,
			failures:     []NodeFailure{{Node: 2, Owned: r(8, 12), Err: down}},
			total:        16, ranges: 4,
			wantCoverage: 0.75,
			wantFailures: 1,
		},
		{
			name:         "two dead ranges accumulate missing cells",
			allowPartial: true,
			failures: []NodeFailure{
				{Node: 1, Owned: r(4, 8), Err: down},
				{Node: 3, Owned: r(12, 16), Err: down},
			},
			total: 16, ranges: 4,
			wantCoverage: 0.5,
			wantFailures: 2,
		},
		{
			name:         "unattempted range reports errReplicasDown and still degrades",
			allowPartial: true,
			failures:     []NodeFailure{{Node: -1, Owned: r(0, 4), Err: errReplicasDown{ri: 0}}},
			total:        16, ranges: 4,
			wantCoverage: 0.75,
			wantFailures: 1,
		},
		{
			name:         "non-transient failure is never degradable",
			allowPartial: true,
			failures:     []NodeFailure{{Node: 0, Owned: r(0, 4), Err: errors.New("malformed query")}},
			total:        16, ranges: 4,
			wantErr: "mediator: node 0",
		},
		{
			name:         "every range down fails even in partial mode",
			allowPartial: true,
			failures: []NodeFailure{
				{Node: 0, Owned: r(0, 8), Err: down},
				{Node: 1, Owned: r(8, 16), Err: down},
			},
			total: 16, ranges: 2,
			wantErr: "all 2 ranges failed on every replica",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := &Mediator{allowPartial: tc.allowPartial}
			stats := &QueryStats{}
			err := m.collectRangeFailures(tc.failures, tc.total, tc.ranges, stats)
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("accounted failures without error, stats %+v", stats)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %q does not mention %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("collectRangeFailures: %v", err)
			}
			if stats.Coverage != tc.wantCoverage { // coverage values here are exact binary fractions
				t.Errorf("Coverage = %v, want %v", stats.Coverage, tc.wantCoverage)
			}
			if len(stats.Failures) != tc.wantFailures {
				t.Errorf("Failures = %+v, want %d entries", stats.Failures, tc.wantFailures)
			}
		})
	}
}

// TestErrReplicasDownIsTransient keeps the all-replicas-down failure
// availability-class, so partial mode can degrade around it.
func TestErrReplicasDownIsTransient(t *testing.T) {
	if !faulttol.Transient(errReplicasDown{ri: 3}) {
		t.Fatal("errReplicasDown must classify as transient")
	}
	if !strings.Contains(errReplicasDown{ri: 3}.Error(), "range 3") {
		t.Fatalf("error %q should name the range", errReplicasDown{ri: 3}.Error())
	}
	wrapped := fmt.Errorf("mediator: node 1: %w", errReplicasDown{ri: 1})
	if !faulttol.Transient(wrapped) {
		t.Fatal("wrapping must preserve the transient classification")
	}
}

// TestTopologyValidation pins the routing-table rules: a mediator assembled
// from nodes alone routes by the table they describe, and New and
// UpdateTopology refuse, with a permanent error, every table whose ranges
// do not tile the domain or that routes to an id that is not a node — each
// would answer short, or twice, with Coverage 1.
func TestTopologyValidation(t *testing.T) {
	nodes, _ := buildNodes(t, 2)
	r0, r1 := nodes[0].Owned(), nodes[1].Owned()
	kOne := membership.Placement{Version: 1, Members: []int{0, 1}, Ranges: []morton.Range{r0, r1}, Owners: [][]int{{0}, {1}}}
	m := mediatorOver(t, nodes)
	if got := m.Topology(); !reflect.DeepEqual(got, kOne) {
		t.Fatalf("Config{Nodes} routes by %+v, want the explicit k = 1 table %+v", got, kOne)
	}

	permanent := func(t *testing.T, err error) {
		t.Helper()
		if err == nil {
			t.Fatal("accepted")
		}
		if faulttol.Transient(err) {
			t.Fatalf("%v is transient, want a permanent error", err)
		}
	}
	for _, tt := range []struct {
		name  string
		nodes []*node.Node
	}{
		{"New rejects one node of two", nodes[:1]},
		{"New rejects a node listed twice", []*node.Node{nodes[0], nodes[0]}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			clients := make([]NodeClient, len(tt.nodes))
			for i, n := range tt.nodes {
				clients[i] = n
			}
			_, err := New(Config{Nodes: clients})
			permanent(t, err)
		})
	}

	whole := morton.Range{Lo: r0.Lo, Hi: r1.Hi}
	for _, tt := range []struct {
		name string
		topo membership.Placement
	}{
		{"UpdateTopology rejects a gap", membership.Placement{Ranges: []morton.Range{r0}, Owners: [][]int{{0}}}},
		{"UpdateTopology rejects an overlap", membership.Placement{Ranges: []morton.Range{whole, r1}, Owners: [][]int{{0}, {1}}}},
		{"UpdateTopology rejects a repeated range", membership.Placement{Ranges: []morton.Range{r0, r0, r1}, Owners: [][]int{{0}, {1}, {1}}}},
		{"UpdateTopology rejects an empty table", membership.Placement{Version: 2}},
		{"UpdateTopology rejects an unregistered owner", membership.Placement{Ranges: []morton.Range{r0, r1}, Owners: [][]int{{0}, {7}}}},
		{"UpdateTopology rejects mismatched lengths", membership.Placement{Ranges: []morton.Range{r0, r1}, Owners: [][]int{{0, 1}}}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			permanent(t, m.UpdateTopology(tt.topo))
			if got := m.Topology(); !reflect.DeepEqual(got, kOne) {
				t.Fatalf("a rejected table changed the routing to %+v", got)
			}
		})
	}

	// Assembled from nodes alone, the mediator still takes a new table.
	t.Run("UpdateTopology accepts k = 2", func(t *testing.T) {
		ctx := context.Background()
		q := query.Threshold{Dataset: "isotropic", Field: derived.Vorticity, Threshold: 1}
		want, _, err := m.Threshold(ctx, nil, q)
		if err != nil {
			t.Fatal(err)
		}
		kTwo := membership.Placement{Version: 2, Ranges: []morton.Range{r0, r1}, Owners: [][]int{{0, 1}, {1, 0}}}
		if err := m.UpdateTopology(kTwo); err != nil {
			t.Fatal(err)
		}
		if got := m.Topology(); !reflect.DeepEqual(got, kTwo) {
			t.Fatalf("routes by %+v after the update, want %+v", got, kTwo)
		}
		got, st, err := m.Threshold(ctx, nil, q)
		if err != nil {
			t.Fatal(err)
		}
		if st.Coverage != 1 || !reflect.DeepEqual(got, want) {
			t.Errorf("after the update: %d points at Coverage %v, want the %d points before it", len(got), st.Coverage, len(want))
		}
	})
}
