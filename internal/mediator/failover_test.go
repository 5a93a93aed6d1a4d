package mediator

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/morton"
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
		{
			name:         "degenerate zero-cell topology falls back to range counts",
			allowPartial: true,
			failures:     []NodeFailure{{Node: 1, Owned: r(0, 0), Err: down}},
			total:        0, ranges: 4,
			wantCoverage: 0.75,
			wantFailures: 1,
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

// TestTopologyValidation pins the routing-table install rules.
func TestTopologyValidation(t *testing.T) {
	nodes, _ := buildNodes(t, 2)
	m := mediatorOver(t, nodes)
	// A mediator assembled without a topology rejects installs outright.
	err := m.UpdateTopology(Topology{Version: 2})
	if err == nil || !strings.Contains(err.Error(), "not assembled with a topology") {
		t.Fatalf("UpdateTopology on a legacy mediator: %v", err)
	}
}
