package main

import (
	"testing"
	"time"

	turbdb "github.com/turbdb/turbdb"
)

// TestThresholdHeader: a partial answer never prints under a whole
// answer's header.
func TestThresholdHeader(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stats turbdb.Stats
		want  string
	}{
		{"whole", turbdb.Stats{Total: 3 * time.Millisecond, Coverage: 1},
			"# 42 points with ‖vorticity‖ ≥ 2 at step 0 (node time 3ms)"},
		{"partial", turbdb.Stats{Total: 3 * time.Millisecond, Coverage: 0.75, NodesFailed: 2},
			"# 42 points with ‖vorticity‖ ≥ 2 at step 0 (node time 3ms; PARTIAL: coverage 0.75, failed nodes 2)"},
		{"coverage 0.5 with 1 failed node", turbdb.Stats{Total: 3 * time.Millisecond, Coverage: 0.5, NodesFailed: 1},
			"# 42 points with ‖vorticity‖ ≥ 2 at step 0 (node time 3ms; PARTIAL: coverage 0.5, failed nodes 1)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := thresholdHeader(42, "vorticity", 2, 0, tc.stats); got != tc.want {
				t.Errorf("header\n got %q\nwant %q", got, tc.want)
			}
		})
	}
}
