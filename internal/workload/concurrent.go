package workload

// Multi-tenant concurrent driving: the load shape the concurrent scheduler
// (internal/sched) is built for. Production mediators serve several analysis
// groups at once, each group hammering its own region of the domain — so the
// generator gives every tenant a hot box it mostly stays inside (overlapping
// queries batch into shared scans), and the runner replays the stream from N
// client goroutines recording per-tenant latency, sheds and scan sharing.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/mediator"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sim"
)

// TenantProfile describes one tenant's traffic shape.
type TenantProfile struct {
	// Name is the tenant ID stamped on the queries (query.Threshold.Tenant).
	Name string
	// Hot is the tenant's favorite region; zero means the whole domain.
	Hot grid.Box
	// HotBias is the probability a query lands in Hot instead of the
	// stream's own box. Tenants with a high bias overlap themselves (and
	// hot-box neighbors), which is what shared scans exploit.
	HotBias float64
	// Weight is the tenant's share of the stream (relative; 0 means 1).
	Weight float64
}

// MultiParams configures a multi-tenant stream.
type MultiParams struct {
	Params
	// Tenants get the stream's queries divided between them by Weight.
	Tenants []TenantProfile
}

// GenerateMulti builds a stream where every query belongs to a tenant,
// biased toward the tenant's hot region. Tenant assignment and box
// substitution are deterministic in Params.Seed, like the base stream.
func GenerateMulti(p MultiParams) ([]Query, error) {
	if len(p.Tenants) == 0 {
		return nil, fmt.Errorf("workload: no tenants")
	}
	qs, err := Generate(p.Params)
	if err != nil {
		return nil, err
	}
	total := 0.0
	for i, tp := range p.Tenants {
		if tp.Name == "" {
			return nil, fmt.Errorf("workload: tenant %d has no name", i)
		}
		if tp.Weight < 0 {
			return nil, fmt.Errorf("workload: tenant %q has negative weight", tp.Name)
		}
		w := tp.Weight
		if w == 0 {
			w = 1
		}
		total += w
	}
	rng := rand.New(rand.NewSource(p.Seed + 1))
	for i := range qs {
		pick := rng.Float64() * total
		tp := p.Tenants[0]
		for _, cand := range p.Tenants {
			w := cand.Weight
			if w == 0 {
				w = 1
			}
			if pick -= w; pick < 0 {
				tp = cand
				break
			}
		}
		qs[i].Tenant = tp.Name
		if tp.Hot != (grid.Box{}) && rng.Float64() < tp.HotBias {
			qs[i].Box = tp.Hot
		}
	}
	return qs, nil
}

// Querier answers threshold queries — a *mediator.Mediator or the scheduler
// wrapped around one. Declared here so the driver never depends on the
// scheduler package it exists to exercise.
type Querier interface {
	Threshold(ctx context.Context, p *sim.Proc, q query.Threshold) ([]query.ResultPoint, *mediator.QueryStats, error)
}

// TenantStats aggregates one tenant's outcomes across the run.
type TenantStats struct {
	// Queries, Errors and Shed count the tenant's completed calls, failed
	// calls, and the subset of failures that were admission sheds.
	Queries int
	Errors  int
	Shed    int

	lat []time.Duration
}

// P50 and P99 are latency percentiles over the tenant's completed queries.
func (s *TenantStats) P50() time.Duration { return percentile(s.lat, 0.50) }
func (s *TenantStats) P99() time.Duration { return percentile(s.lat, 0.99) }

// percentile is the nearest-rank percentile of a sample (0 when empty).
// The sample is sorted in place.
func percentile(lat []time.Duration, q float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	idx := int(q * float64(len(lat)-1))
	return lat[idx]
}

// Report is the outcome of one concurrent run.
type Report struct {
	Tenants map[string]*TenantStats
	// Queries/Errors/Shed are the run-wide sums of the per-tenant counts.
	Queries int
	Errors  int
	Shed    int
	// Points counts result points across successful queries.
	Points int
	// SharedScans counts answers served from a shared-scan batch, and
	// ScansSaved sums the node atom scans that sharing avoided.
	SharedScans int
	ScansSaved  int
	// AtomsRead sums the node-side atoms actually scanned (critical path).
	AtomsRead int
	// Elapsed is the wall-clock span of the run.
	Elapsed time.Duration

	lat []time.Duration
}

// P50 and P99 are latency percentiles across every completed query.
func (r *Report) P50() time.Duration { return percentile(r.lat, 0.50) }
func (r *Report) P99() time.Duration { return percentile(r.lat, 0.99) }

// Concurrent replays the stream against qr from `clients` goroutines, each
// pulling the next query off the shared stream — the closed-loop many-client
// model. A query failure is recorded, never fatal: overload sheds
// and mid-run node deaths are exactly what the run is measuring. The ctx
// cancels the run early (the partial report is still returned).
func Concurrent(ctx context.Context, qr Querier, stream []Query, clients int) (*Report, error) {
	if clients < 1 {
		return nil, fmt.Errorf("workload: clients must be ≥ 1")
	}

	type sample struct {
		tenant string
		lat    time.Duration
		err    error
		points int
		shared bool
		saved  int
		atoms  int
	}
	perClient := make([][]sample, clients)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(stream) {
					return
				}
				q := stream[i]
				qstart := time.Now()
				pts, stats, err := qr.Threshold(ctx, nil, q.Threshold)
				s := sample{tenant: q.Tenant, lat: time.Since(qstart), err: err, points: len(pts)}
				if stats != nil {
					s.shared = stats.SharedScan
					s.saved = stats.ScansSaved
					s.atoms = stats.NodeCritical.AtomsRead
				}
				perClient[c] = append(perClient[c], s)
			}
		}(c)
	}
	wg.Wait()

	rep := &Report{Tenants: make(map[string]*TenantStats), Elapsed: time.Since(start)}
	for _, samples := range perClient {
		for _, s := range samples {
			ts := rep.Tenants[s.tenant]
			if ts == nil {
				ts = &TenantStats{}
				rep.Tenants[s.tenant] = ts
			}
			ts.Queries++
			rep.Queries++
			if s.err != nil {
				ts.Errors++
				rep.Errors++
				var oq interface{ OverQuota() bool }
				if errors.As(s.err, &oq) && oq.OverQuota() {
					ts.Shed++
					rep.Shed++
				}
				continue
			}
			ts.lat = append(ts.lat, s.lat)
			rep.lat = append(rep.lat, s.lat)
			rep.Points += s.points
			if s.shared {
				rep.SharedScans++
			}
			rep.ScansSaved += s.saved
			rep.AtomsRead += s.atoms
		}
	}
	return rep, ctx.Err()
}
