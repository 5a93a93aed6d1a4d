package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/turbdb/turbdb/internal/cache"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sched"
)

// answer is what one op returned, in the shape the checker needs.
type answer struct {
	points   []query.ResultPoint
	counts   []int64
	coverage float64 // threshold ops only; 0 = not reported
}

// do issues one op against the system: through the loopback mediator
// service when the workload has one, else by direct calls.
func (sys *system) do(ctx context.Context, dataset string, o op, thr float64, pdfWidth float64) (answer, error) {
	switch o.kind {
	case opPDF:
		q := query.PDF{Dataset: dataset, Field: o.field, Timestep: o.step, Bins: pdfBins, Width: pdfWidth, FDOrder: o.order, Tenant: o.tenant}
		if sys.user != nil {
			res, err := sys.user.GetPDF(ctx, nil, q)
			if err != nil {
				return answer{}, err
			}
			return answer{counts: res.Counts}, nil
		}
		counts, _, err := sys.entry.PDF(ctx, nil, q)
		return answer{counts: counts}, err
	case opTopK:
		q := query.TopK{Dataset: dataset, Field: o.field, Timestep: o.step, K: topK, FDOrder: o.order, Tenant: o.tenant}
		if sys.user != nil {
			res, err := sys.user.GetTopK(ctx, nil, q)
			if err != nil {
				return answer{}, err
			}
			return answer{points: res.Points}, nil
		}
		pts, _, err := sys.entry.TopK(ctx, nil, q)
		return answer{points: pts}, err
	}
	q := thresholdQuery(dataset, o, thr)
	if sys.user != nil {
		pts, resp, err := sys.user.ThresholdStats(ctx, q, false)
		if err != nil {
			return answer{}, err
		}
		return answer{points: pts, coverage: resp.Coverage}, nil
	}
	pts, st, err := sys.entry.Threshold(ctx, nil, q)
	if err != nil {
		return answer{}, err
	}
	return answer{points: pts, coverage: st.Coverage}, nil
}

func thresholdQuery(dataset string, o op, thr float64) query.Threshold {
	return query.Threshold{
		Dataset: dataset, Field: o.field, Timestep: o.step, Threshold: thr,
		Box: o.box, FDOrder: o.order, Tenant: o.tenant,
	}
}

// phase is the outcome of one closed-loop replay.
type phase struct {
	latencies []time.Duration // of the ops that completed and verified
	attempted int
	failed    int // errors + sheds + oracle mismatches
	shed      int
	firstErr  error
	wall      time.Duration
	cpu       time.Duration // process user+sys over the phase
	check     time.Duration // harness time spent verifying, inside wall
	mem       memDelta
}

type memDelta struct {
	allocBytes uint64
	allocs     uint64
	gcCycles   uint32
	gcPause    time.Duration
}

// runner replays ops against one system and verifies every answer.
type runner struct {
	w       *workloadSpec
	sys     *system
	oracle  *oracle
	dataset string
	tr      *tracer // nil = untraced
}

// replay runs a closed loop: each of the workload's callers sends its next
// op only after its previous reply has arrived and been checked. It stops
// after count ops (count > 0) or once deadline has passed; ops are taken
// from next in order.
func (r *runner) replay(ctx context.Context, next func() op, count int, deadline time.Time) phase {
	var (
		mu     sync.Mutex // guards next, issued and ph
		issued int
		ph     phase
	)
	take := func() (op, bool) {
		mu.Lock()
		defer mu.Unlock()
		if count > 0 {
			if issued >= count {
				return op{}, false
			}
		} else if !time.Now().Before(deadline) {
			return op{}, false
		}
		issued++
		return next(), true
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < r.w.callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				o, ok := take()
				if !ok {
					return
				}
				lat, checkTime, err := r.one(ctx, o)
				mu.Lock()
				ph.attempted++
				ph.check += checkTime
				if err != nil {
					ph.failed++
					var shed *sched.ErrOverQuota
					if errors.As(err, &shed) {
						ph.shed++
					}
					if ph.firstErr == nil {
						ph.firstErr = err
					}
				} else {
					ph.latencies = append(ph.latencies, lat)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.wall = time.Since(start)
	ph.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	ph.mem = memDelta{
		allocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
		allocs:     ms1.Mallocs - ms0.Mallocs,
		gcCycles:   ms1.NumGC - ms0.NumGC,
		gcPause:    time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs),
	}
	return ph
}

// one issues a single op, times it on the caller's side, and checks the
// answer against the oracle once the clock has stopped.
func (r *runner) one(ctx context.Context, o op) (lat, checkTime time.Duration, err error) {
	oc := r.oracle.classes[o.key()]
	if oc == nil {
		return 0, 0, fmt.Errorf("bench: no oracle for %v", o.key())
	}
	var thr float64
	if o.kind == opThreshold {
		thr = oc.thresholds[o.level]
	}
	if o.drop {
		if err := r.sys.med.DropCache(ctx, o.field, o.order, o.step); err != nil {
			return 0, 0, fmt.Errorf("bench: drop cache: %w", err)
		}
	}
	var root *activeSpan
	var key memberKey
	if r.tr != nil {
		key = memberKeyOf(thresholdQuery(r.dataset, o, thr), oc.domain)
		ctx, root = r.tr.root(ctx, key)
		root.add("kind", int64(o.kind))
		root.s.Class = o.class()
	}
	start := time.Now()
	ans, err := r.sys.do(ctx, r.dataset, o, thr, oc.rms)
	lat = time.Since(start)
	if root != nil {
		root.add("points", int64(len(ans.points)))
		r.tr.endRoot(root, key)
	}
	if err != nil {
		return 0, 0, err
	}
	checkStart := time.Now()
	switch o.kind {
	case opThreshold:
		err = oc.checkThreshold(thr, o.box, ans.points)
		if err == nil && ans.coverage != 1 { //lint:allow floateq a complete answer reports exactly 1
			err = fmt.Errorf("%v: coverage %g, want 1", o.key(), ans.coverage)
		}
	case opPDF:
		err = oc.checkPDF(ans.counts)
	case opTopK:
		err = oc.checkTopK(topK, ans.points)
	}
	checkTime = time.Since(checkStart)
	if err != nil {
		return 0, checkTime, fmt.Errorf("oracle mismatch: %w", err)
	}
	return lat, checkTime, nil
}

// warmCaches issues one query per (field, step) at the lowest level, so
// that every later op of an all-hit workload is answerable from cache.
func (r *runner) warmCaches(ctx context.Context) error {
	for _, k := range r.w.keys {
		if _, _, err := r.one(ctx, op{kind: opThreshold, field: k.field, order: k.order, step: k.step}); err != nil {
			return fmt.Errorf("bench: cache warm-up %v: %w", k, err)
		}
	}
	return nil
}

// probeUnalignedBox issues the known-defect probe: a derived-field
// threshold over a box that is not aligned to the atoms. It reports 1 when
// the query fails or answers wrongly, 0 when it answers correctly; either
// way the outcome stays out of the failure count.
func (r *runner) probeUnalignedBox(ctx context.Context) (failed int, detail string) {
	n := r.w.n
	lo, hi := 3, n/2+6 // [3,38)³ on the 64³ grid
	o := op{
		kind: opThreshold, field: r.w.keys[0].field, order: r.w.keys[0].order, step: r.w.keys[0].step,
		box:  grid.Box{Lo: grid.Point{X: lo, Y: lo, Z: lo}, Hi: grid.Point{X: hi, Y: hi, Z: hi}},
		drop: true, // a cached whole-domain answer would hide the scan path
	}
	if _, _, err := r.one(ctx, o); err != nil {
		return 1, err.Error()
	}
	return 0, ""
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// percentile is the nearest-rank percentile of an ascending sample.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// latenciesMS returns the latencies in milliseconds, ascending.
func latenciesMS(lats []time.Duration) []float64 {
	out := make([]float64, len(lats))
	for i, d := range lats {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// cacheTotals sums the nodes' cache statistics.
func cacheTotals(sys *system) cache.Stats {
	var t cache.Stats
	for _, n := range sys.nodes {
		if c := n.Cache(); c != nil {
			s := c.Stats()
			t.Hits += s.Hits
			t.Misses += s.Misses
			t.Stores += s.Stores
			t.Evictions += s.Evictions
		}
	}
	return t
}
