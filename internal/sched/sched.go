// Package sched is the mediator-side concurrent query scheduler: an
// admission queue with per-tenant resource pools (quotas + priorities,
// modeled on Vertica's resource pools), shared-scan batching of concurrent
// threshold queries over the same (field, order, step), and the obs wiring
// that makes both visible (queue-depth/occupancy gauges, admission-wait and
// latency histograms, scans-saved counters).
//
// The scheduler wraps a Backend (in production *mediator.Mediator) and
// exposes the same Threshold/PDF/TopK surface, so the wire layer serves a
// scheduler and a bare mediator interchangeably. Admission applies to every
// query; batching applies to threshold queries only — PDF/TopK answers are
// cheap to merge but expensive to share, so they pass straight through
// after admission.
//
// Invariant (held by the differential tests): a query answered through the
// scheduler — queued, batched, failed over — returns Float32bits-identical
// points and identical Coverage to the same query evaluated solo. Sharing a
// scan changes WHEN work happens, never WHAT comes back.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/mediator"
	"github.com/turbdb/turbdb/internal/obs"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sim"
)

// Scheduler-wide metrics. Tenant occupancy gauges are labeled per pool and
// created lazily.
var (
	mQueueDepth = obs.Default().Gauge("turbdb_sched_queue_depth")
	mRunning    = obs.Default().Gauge("turbdb_sched_running")
	mShed       = obs.Default().Counter("turbdb_sched_shed_total")
	mAdmitWait  = obs.Default().Histogram("turbdb_sched_admission_wait_seconds", obs.DurationBuckets)
	mLatency    = obs.Default().Histogram("turbdb_sched_latency_seconds", obs.DurationBuckets)
	mBatches    = obs.Default().Counter("turbdb_sched_batches_total")
	mMerged     = obs.Default().Counter("turbdb_sharedscan_merged_total")
	mAtomsSaved = obs.Default().Counter("turbdb_sharedscan_atoms_saved_total")
)

// ErrClosed rejects queries submitted after Close.
var ErrClosed = faulttol.Permanent("sched: scheduler closed")

// ErrOverQuota is the typed shed error: the tenant's queue quota is full
// and the query was rejected instead of parked. It is availability-class
// (Transient), so retry/backoff layers treat it like an overloaded node,
// and the wire layer maps it to HTTP 429.
type ErrOverQuota struct {
	// Tenant is the pool that shed the query ("default" for the unnamed
	// pool).
	Tenant string
	// Queued and Limit are the pool's occupancy and quota at shed time.
	Queued int
	Limit  int
}

func (e *ErrOverQuota) Error() string {
	return fmt.Sprintf("sched: tenant %q over quota (%d queued, limit %d)", e.Tenant, e.Queued, e.Limit)
}

// OverQuota marks the error for callers that must classify sheds without
// importing this package (internal/workload).
func (e *ErrOverQuota) OverQuota() bool { return true }

// Transient marks the shed availability-class: backing off and retrying is
// the correct response.
func (e *ErrOverQuota) Transient() bool { return true }

// Pool is one tenant's resource pool (Vertica-style: a concurrency share
// plus a bounded queue and a scheduling priority).
type Pool struct {
	// MaxRunning caps the tenant's concurrently executing queries;
	// 0 = the scheduler's global MaxConcurrent (no per-tenant cap).
	MaxRunning int
	// MaxQueued caps the tenant's waiting queries; beyond it the scheduler
	// sheds with *ErrOverQuota. 0 = DefaultMaxQueued, negative = shed
	// immediately when no slot is free.
	MaxQueued int
	// Priority orders dispatch between tenants: higher runs first. Equal
	// priorities dispatch FIFO. Starvation is bounded by Config.MaxBypass
	// regardless of priority spread.
	Priority int
}

// Config tunes a Scheduler.
type Config struct {
	// MaxConcurrent is the global concurrent-query cap across all tenants;
	// 0 = 4 × GOMAXPROCS.
	MaxConcurrent int
	// DefaultPool applies to tenants without an entry in Pools.
	DefaultPool Pool
	// Pools maps tenant name → resource pool.
	Pools map[string]Pool
	// BatchWindow is the longest a follower of an in-flight scan waits
	// before its batch executes; a query whose batch key is idle never
	// waits. 0 disables shared-scan batching (admission control still
	// applies).
	BatchWindow time.Duration
	// MaxBatch caps members per batch; 0 = 64.
	MaxBatch int
	// MaxBypass bounds priority inversion: after a waiter has been passed
	// over this many times, it dispatches before any higher-priority
	// arrival. 0 = 16.
	MaxBypass int
}

// DefaultMaxQueued is the per-tenant queue quota when the pool leaves
// MaxQueued zero.
const DefaultMaxQueued = 64

// Backend is the query engine the scheduler feeds — *mediator.Mediator in
// production, a stub in the admission tests.
type Backend interface {
	Threshold(ctx context.Context, p *sim.Proc, q query.Threshold) ([]query.ResultPoint, *mediator.QueryStats, error)
	ThresholdBatch(ctx context.Context, p *sim.Proc, qs []query.Threshold) ([]mediator.BatchAnswer, error)
	PDF(ctx context.Context, p *sim.Proc, q query.PDF) ([]int64, *mediator.QueryStats, error)
	TopK(ctx context.Context, p *sim.Proc, q query.TopK) ([]query.ResultPoint, *mediator.QueryStats, error)
	Grid() grid.Grid
	Dataset() string
	NodeCount() int
}

// tenantState is one tenant's live occupancy.
type tenantState struct {
	// running and queued are owned by the Scheduler's mutex (the
	// struct-spanning sched.state lock; lockcheck can only model
	// same-struct guards).
	name    string
	pool    Pool
	running int
	queued  int

	gRunning *obs.Gauge
	gQueued  *obs.Gauge
}

// waiter is one query parked in the admission queue.
type waiter struct {
	// bypassed, granted and err are owned by the Scheduler's mutex; err is
	// written before grant closes, so the waiter reads it race-free after
	// <-grant without the lock.
	ts       *tenantState
	prio     int
	seq      uint64
	bypassed int // times passed over by dispatch
	granted  bool
	err      error
	grant    chan struct{} // closed exactly once, under the Scheduler's mutex
}

// Scheduler is the admission + batching front end. Safe for concurrent
// use; Close drains batch executors and fails queued waiters.
type Scheduler struct {
	backend Backend
	cfg     Config

	// All admission and batching state hangs off one mutex: grants, queue
	// reordering, and batch join/seal are each a few map/slice operations,
	// so a single rank keeps the hierarchy flat and the seal race
	// impossible by construction.
	//
	//turbdb:lockrank sched.state 11
	mu       sync.Mutex
	closed   bool                    // guarded by mu
	running  int                     // guarded by mu
	seq      uint64                  // guarded by mu
	tenants  map[string]*tenantState // guarded by mu
	queue    []*waiter               // guarded by mu; arrival (seq) order
	batches  map[batchKey]*batch     // guarded by mu; open, unsealed batches
	inflight map[batchKey]int        // guarded by mu; running solo scans + sealed batches per key

	wg sync.WaitGroup // batch executors; joined by Close
}

// New builds a scheduler over the backend. Simulated (DES) mediators are
// refused: the batching window and admission queue are wall-clock
// constructs with no meaning in virtual time.
func New(b Backend, cfg Config) (*Scheduler, error) {
	if b == nil {
		return nil, faulttol.Permanent("sched: nil backend")
	}
	if sm, ok := b.(interface{ Simulated() bool }); ok && sm.Simulated() {
		return nil, faulttol.Permanent("sched: simulated mediators cannot be scheduled (wall-clock batching window)")
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4 * runtime.GOMAXPROCS(0)
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	if cfg.MaxBypass <= 0 {
		cfg.MaxBypass = 16
	}
	return &Scheduler{
		backend:  b,
		cfg:      cfg,
		tenants:  make(map[string]*tenantState),
		batches:  make(map[batchKey]*batch),
		inflight: make(map[batchKey]int),
	}, nil
}

// Grid, Dataset and NodeCount delegate to the backend so the scheduler
// satisfies the wire layer's Querier surface.
func (s *Scheduler) Grid() grid.Grid { return s.backend.Grid() }
func (s *Scheduler) Dataset() string { return s.backend.Dataset() }
func (s *Scheduler) NodeCount() int  { return s.backend.NodeCount() }

// tenantStateLocked resolves (or creates) the tenant's pool state.
func (s *Scheduler) tenantStateLocked(tenant string) *tenantState {
	name := tenant
	if name == "" {
		name = "default"
	}
	ts := s.tenants[name]
	if ts != nil {
		return ts
	}
	pool, ok := s.cfg.Pools[name]
	if !ok {
		pool = s.cfg.DefaultPool
	}
	if pool.MaxRunning <= 0 {
		pool.MaxRunning = s.cfg.MaxConcurrent
	}
	if pool.MaxQueued == 0 {
		pool.MaxQueued = DefaultMaxQueued
	} else if pool.MaxQueued < 0 {
		pool.MaxQueued = 0
	}
	ts = &tenantState{
		name:     name,
		pool:     pool,
		gRunning: obs.Default().Gauge(fmt.Sprintf("turbdb_sched_tenant_running{tenant=%q}", name)),
		gQueued:  obs.Default().Gauge(fmt.Sprintf("turbdb_sched_tenant_queued{tenant=%q}", name)),
	}
	s.tenants[name] = ts
	return ts
}

// admit blocks until the query may run, returning the time spent queued and
// the release function for its slot. It fails fast with *ErrOverQuota when
// the tenant's queue quota is full, with ErrClosed after Close, and with
// ctx.Err() if the caller gives up while queued — in every case without
// leaking the slot.
func (s *Scheduler) admit(ctx context.Context, tenant string) (time.Duration, func(), error) {
	_, asp := obs.StartSpan(ctx, "admit")
	defer asp.End()
	start := time.Now()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, nil, ErrClosed
	}
	ts := s.tenantStateLocked(tenant)
	// Fast path: room globally and in the pool, nobody ahead in line.
	if len(s.queue) == 0 && s.running < s.cfg.MaxConcurrent && ts.running < ts.pool.MaxRunning {
		s.running++
		ts.running++
		mRunning.Set(int64(s.running))
		ts.gRunning.Set(int64(ts.running))
		s.mu.Unlock()
		mAdmitWait.Observe(time.Since(start).Seconds())
		return 0, func() { s.release(ts) }, nil
	}
	if ts.queued >= ts.pool.MaxQueued {
		queued := ts.queued
		s.mu.Unlock()
		mShed.Inc()
		return 0, nil, &ErrOverQuota{Tenant: ts.name, Queued: queued, Limit: ts.pool.MaxQueued}
	}
	s.seq++
	w := &waiter{ts: ts, prio: ts.pool.Priority, seq: s.seq, grant: make(chan struct{})}
	s.queue = append(s.queue, w)
	ts.queued++
	mQueueDepth.Set(int64(len(s.queue)))
	ts.gQueued.Set(int64(ts.queued))
	// A slot may have freed between the fast-path check and the append.
	s.dispatchLocked()
	s.mu.Unlock()

	select {
	case <-w.grant:
		wait := time.Since(start)
		mAdmitWait.Observe(wait.Seconds())
		if w.err != nil {
			return wait, nil, w.err
		}
		return wait, func() { s.release(ts) }, nil
	case <-ctx.Done():
		s.mu.Lock()
		if w.granted && w.err == nil {
			// Lost the race: the slot was granted while we were giving up.
			// Hand it straight to the next waiter.
			s.releaseLocked(ts)
			s.dispatchLocked()
		} else if !w.granted {
			s.removeWaiterLocked(w)
		}
		s.mu.Unlock()
		return time.Since(start), nil, ctx.Err()
	}
}

// release returns a slot and wakes the next eligible waiter.
func (s *Scheduler) release(ts *tenantState) {
	s.mu.Lock()
	s.releaseLocked(ts)
	s.dispatchLocked()
	s.mu.Unlock()
}

func (s *Scheduler) releaseLocked(ts *tenantState) {
	s.running--
	ts.running--
	mRunning.Set(int64(s.running))
	ts.gRunning.Set(int64(ts.running))
}

// removeWaiterLocked drops an ungranted waiter from the queue (cancelled
// while parked).
func (s *Scheduler) removeWaiterLocked(w *waiter) {
	for i, o := range s.queue {
		if o == w {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			break
		}
	}
	w.ts.queued--
	mQueueDepth.Set(int64(len(s.queue)))
	w.ts.gQueued.Set(int64(w.ts.queued))
}

// dispatchLocked grants slots while any eligible waiter exists. Pick order:
// a starved waiter (bypassed ≥ MaxBypass, oldest first) beats everyone —
// the priority-inversion bound — otherwise highest pool priority, FIFO
// within a priority. Every eligible waiter older than the pick has been
// passed over once more and its bypass count grows, so a low-priority
// waiter is granted after at most MaxBypass higher-priority grants.
func (s *Scheduler) dispatchLocked() {
	for s.running < s.cfg.MaxConcurrent {
		pick := -1
		forced := -1
		for i, w := range s.queue {
			if w.ts.running >= w.ts.pool.MaxRunning {
				continue // the tenant's own cap, not an inversion
			}
			if forced == -1 && w.bypassed >= s.cfg.MaxBypass {
				forced = i // queue is seq-ordered: first hit is oldest
			}
			if pick == -1 || w.prio > s.queue[pick].prio {
				pick = i
			}
		}
		if forced != -1 {
			pick = forced
		}
		if pick == -1 {
			return
		}
		w := s.queue[pick]
		for _, o := range s.queue[:pick] {
			if o.ts.running < o.ts.pool.MaxRunning {
				o.bypassed++
			}
		}
		s.queue = append(s.queue[:pick], s.queue[pick+1:]...)
		w.ts.queued--
		w.granted = true
		s.running++
		w.ts.running++
		mQueueDepth.Set(int64(len(s.queue)))
		mRunning.Set(int64(s.running))
		w.ts.gQueued.Set(int64(w.ts.queued))
		w.ts.gRunning.Set(int64(w.ts.running))
		close(w.grant)
	}
}

// Close stops admission (new queries and parked waiters fail with
// ErrClosed), flushes open batches so already-admitted members still get
// answers, and joins every executor goroutine. Safe to call twice.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	for _, w := range s.queue {
		w.err = ErrClosed
		w.granted = true
		close(w.grant)
		w.ts.queued--
		w.ts.gQueued.Set(int64(w.ts.queued))
	}
	s.queue = nil
	mQueueDepth.Set(0)
	for _, b := range s.batches {
		close(b.flush)
	}
	s.batches = make(map[batchKey]*batch)
	s.mu.Unlock()
	s.wg.Wait()
}

// Threshold runs one threshold query through admission and (when a window
// is configured) shared-scan batching. The answer is bit-for-bit what the
// backend alone would return; stats gain QueueWait and, for batched
// queries, SharedScan/ScansSaved.
func (s *Scheduler) Threshold(ctx context.Context, p *sim.Proc, q query.Threshold) ([]query.ResultPoint, *mediator.QueryStats, error) {
	start := time.Now()
	wait, release, err := s.admit(ctx, q.Tenant)
	if err != nil {
		return nil, nil, err
	}
	defer release()
	var pts []query.ResultPoint
	var stats *mediator.QueryStats
	if s.cfg.BatchWindow > 0 {
		pts, stats, err = s.runBatched(ctx, p, q)
	} else {
		pts, stats, err = s.backend.Threshold(ctx, p, q)
	}
	if stats != nil {
		stats.QueueWait = wait
	}
	mLatency.Observe(time.Since(start).Seconds())
	return pts, stats, err
}

// PDF runs a histogram query under admission control (no batching).
func (s *Scheduler) PDF(ctx context.Context, p *sim.Proc, q query.PDF) ([]int64, *mediator.QueryStats, error) {
	start := time.Now()
	wait, release, err := s.admit(ctx, q.Tenant)
	if err != nil {
		return nil, nil, err
	}
	defer release()
	counts, stats, err := s.backend.PDF(ctx, p, q)
	if stats != nil {
		stats.QueueWait = wait
	}
	mLatency.Observe(time.Since(start).Seconds())
	return counts, stats, err
}

// TopK runs a top-k query under admission control (no batching).
func (s *Scheduler) TopK(ctx context.Context, p *sim.Proc, q query.TopK) ([]query.ResultPoint, *mediator.QueryStats, error) {
	start := time.Now()
	wait, release, err := s.admit(ctx, q.Tenant)
	if err != nil {
		return nil, nil, err
	}
	defer release()
	pts, stats, err := s.backend.TopK(ctx, p, q)
	if stats != nil {
		stats.QueueWait = wait
	}
	mLatency.Observe(time.Since(start).Seconds())
	return pts, stats, err
}
