package turbdb

import (
	"context"
	"regexp"
	"strings"
	"testing"

	"github.com/turbdb/turbdb/internal/obs"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sched"
)

// TestMetricNames pins the metric namespace: every family in the process
// registry is turbdb_[a-z0-9_]+. The root package links every package that
// registers metrics; one scheduled query over a small cluster creates the
// per-node breaker gauges and the per-tenant scheduler gauges, whose names
// are built at run time.
func TestMetricNames(t *testing.T) {
	db := openTest(t, Config{})
	s, err := sched.New(db.c.Mediator, sched.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	q := query.Threshold{Dataset: db.Dataset(), Field: "vorticity", Threshold: 1, Tenant: "viz"}
	if _, _, err := s.Threshold(context.Background(), nil, q); err != nil {
		t.Fatal(err)
	}

	var text strings.Builder
	if err := obs.Default().WriteText(&text); err != nil {
		t.Fatal(err)
	}
	family := regexp.MustCompile(`^turbdb_[a-z0-9_]+$`)
	seen := make(map[string]bool)
	for _, line := range strings.Split(text.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name := strings.Fields(rest)[0]
			seen[name] = true
			if !family.MatchString(name) {
				t.Errorf("metric family %q does not match %s", name, family)
			}
		}
	}
	for _, want := range []string{"turbdb_breaker_state", "turbdb_sched_tenant_running", "turbdb_cache_hits_total", "turbdb_node_halo_bytes_total"} {
		if !seen[want] {
			t.Errorf("family %s is not registered; the test no longer covers what it claims", want)
		}
	}
}
