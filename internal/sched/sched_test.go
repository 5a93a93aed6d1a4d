package sched

// Admission-control edge cases on a stub backend: quota sheds are typed and
// never hang, cancellation while queued releases the slot, priority
// inversion is bounded by MaxBypass, and the batching-window seal race
// neither drops nor double-evaluates a member. All run under -race in CI.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/mediator"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/obs"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sim"
)

// stubBackend answers instantly (or blocks on gate when set) and records
// call order and batch membership.
type stubBackend struct {
	g    grid.Grid
	gate chan struct{} // when non-nil, Threshold blocks until closed

	mu           sync.Mutex
	order        []string // tenants in backend-entry order
	thresholds   int      // solo Threshold calls
	batchCalls   int      // ThresholdBatch calls
	batchMembers int      // members across batch calls
}

func newStub(t *testing.T) *stubBackend {
	t.Helper()
	g, err := grid.New(16, 8, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return &stubBackend{g: g}
}

func (s *stubBackend) record(tenant string) {
	s.mu.Lock()
	s.order = append(s.order, tenant)
	s.thresholds++
	s.mu.Unlock()
}

func (s *stubBackend) Threshold(ctx context.Context, _ *sim.Proc, q query.Threshold) ([]query.ResultPoint, *mediator.QueryStats, error) {
	s.record(q.Tenant)
	if s.gate != nil {
		select {
		case <-s.gate:
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	return []query.ResultPoint{{Code: 1, Value: float32(q.Threshold)}}, &mediator.QueryStats{Coverage: 1, Points: 1}, nil
}

func (s *stubBackend) ThresholdBatch(ctx context.Context, _ *sim.Proc, qs []query.Threshold) ([]mediator.BatchAnswer, error) {
	s.mu.Lock()
	s.batchCalls++
	s.batchMembers += len(qs)
	s.mu.Unlock()
	out := make([]mediator.BatchAnswer, len(qs))
	for i, q := range qs {
		out[i] = mediator.BatchAnswer{
			Points: []query.ResultPoint{{Code: 1, Value: float32(q.Threshold)}},
			Stats:  &mediator.QueryStats{Coverage: 1, Points: 1, ScansSaved: 1},
		}
	}
	return out, nil
}

func (s *stubBackend) PDF(ctx context.Context, _ *sim.Proc, q query.PDF) ([]int64, *mediator.QueryStats, error) {
	return []int64{1}, &mediator.QueryStats{Coverage: 1}, nil
}

func (s *stubBackend) TopK(ctx context.Context, _ *sim.Proc, q query.TopK) ([]query.ResultPoint, *mediator.QueryStats, error) {
	return []query.ResultPoint{{Code: 2, Value: 3}}, &mediator.QueryStats{Coverage: 1}, nil
}

func (s *stubBackend) Grid() grid.Grid { return s.g }
func (s *stubBackend) Dataset() string { return "stub" }
func (s *stubBackend) NodeCount() int  { return 1 }

// slowStub answers solo Threshold calls after delay.
type slowStub struct {
	*stubBackend
	delay time.Duration
}

func (s *slowStub) Threshold(ctx context.Context, p *sim.Proc, q query.Threshold) ([]query.ResultPoint, *mediator.QueryStats, error) {
	time.Sleep(s.delay)
	return s.stubBackend.Threshold(ctx, p, q)
}

// gatedStub blocks only tenant "leader"'s solo Threshold calls on gate (or
// their ctx), signalling entered first; every other query answers at once.
type gatedStub struct {
	*stubBackend
	gate    chan struct{}
	entered chan struct{}
}

func newGated(t *testing.T) *gatedStub {
	// entered has room for every leader a test starts, so the signal never
	// blocks a leader whose entry the test does not await.
	return &gatedStub{stubBackend: newStub(t), gate: make(chan struct{}), entered: make(chan struct{}, 8)}
}

func (g *gatedStub) Threshold(ctx context.Context, p *sim.Proc, q query.Threshold) ([]query.ResultPoint, *mediator.QueryStats, error) {
	if q.Tenant == "leader" {
		g.entered <- struct{}{}
		select {
		case <-g.gate:
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
	return g.stubBackend.Threshold(ctx, p, q)
}

// awaitEntered waits for a gated leader to reach the backend.
func awaitEntered(t *testing.T, g *gatedStub) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("leader never reached the backend (parked in a batch instead?)")
	}
}

// goThreshold runs one scheduled query in the background.
func goThreshold(s *Scheduler, ctx context.Context, q query.Threshold) <-chan answer {
	ch := make(chan answer, 1)
	go func() {
		pts, stats, err := s.Threshold(ctx, nil, q)
		ch <- answer{pts: pts, stats: stats, err: err}
	}()
	return ch
}

// await receives a background query's answer, failing after 5 s.
func await(t *testing.T, ch <-chan answer, what string) answer {
	t.Helper()
	select {
	case a := <-ch:
		return a
	case <-time.After(5 * time.Second):
		t.Fatal(what)
		return answer{}
	}
}

// waitParked polls until n members wait in open batches.
func waitParked(t *testing.T, s *Scheduler, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		parked := 0
		for _, b := range s.batches {
			parked += len(b.members)
		}
		s.mu.Unlock()
		if parked == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d members parked, want %d", parked, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func stubQuery(tenant string, threshold float64) query.Threshold {
	return query.Threshold{Dataset: "stub", Field: "f", Threshold: threshold, Tenant: tenant}
}

// waitQueueDepth polls until the scheduler's admission queue holds n waiters.
func waitQueueDepth(t *testing.T, s *Scheduler, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		depth := len(s.queue)
		s.mu.Unlock()
		if depth == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never reached %d (at %d)", n, depth)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestSchedNewRejectsBadBackends(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("nil backend accepted")
	}
	if _, err := New(simulatedStub{newStub(t)}, Config{}); err == nil {
		t.Error("simulated backend accepted (the batching window is wall-clock)")
	}
}

// simulatedStub marks the stub as DES-driven.
type simulatedStub struct{ *stubBackend }

func (simulatedStub) Simulated() bool { return true }

// TestSchedQuotaExhaustionShedsTyped fills a tenant's queue quota and checks
// the overflow query is rejected immediately with the typed error — never
// parked, never hung.
func TestSchedQuotaExhaustionShedsTyped(t *testing.T) {
	defer obs.VerifyNoLeaks(t)
	b := newStub(t)
	b.gate = make(chan struct{})
	s, err := New(b, Config{
		MaxConcurrent: 1,
		Pools:         map[string]Pool{"viz": {MaxQueued: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	running := make(chan error, 2)
	go func() { // occupies the only slot
		_, _, err := s.Threshold(context.Background(), nil, stubQuery("viz", 1))
		running <- err
	}()
	waitQueueDepth(t, s, 0)
	for int(func() int { s.mu.Lock(); defer s.mu.Unlock(); return s.running }()) < 1 {
		time.Sleep(100 * time.Microsecond)
	}
	go func() { // fills the quota of one queued query
		_, _, err := s.Threshold(context.Background(), nil, stubQuery("viz", 2))
		running <- err
	}()
	waitQueueDepth(t, s, 1)

	done := make(chan error, 1)
	go func() {
		_, _, err := s.Threshold(context.Background(), nil, stubQuery("viz", 3))
		done <- err
	}()
	var shedErr error
	select {
	case shedErr = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("over-quota query hung instead of shedding")
	}
	var oq *ErrOverQuota
	if !errors.As(shedErr, &oq) {
		t.Fatalf("err = %v, want *ErrOverQuota", shedErr)
	}
	if oq.Tenant != "viz" || oq.Queued != 1 || oq.Limit != 1 {
		t.Errorf("shed detail = %+v", oq)
	}
	if !oq.OverQuota() || !oq.Transient() {
		t.Error("shed must classify OverQuota and Transient")
	}

	close(b.gate)
	for i := 0; i < 2; i++ {
		if err := <-running; err != nil {
			t.Fatalf("in-quota query failed: %v", err)
		}
	}
}

// TestSchedCancelWhileQueuedReleasesSlot cancels a parked waiter and checks
// the slot it would have taken still flows to the next query.
func TestSchedCancelWhileQueuedReleasesSlot(t *testing.T) {
	defer obs.VerifyNoLeaks(t)
	b := newStub(t)
	b.gate = make(chan struct{})
	s, err := New(b, Config{MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	first := make(chan error, 1)
	go func() {
		_, _, err := s.Threshold(context.Background(), nil, stubQuery("a", 1))
		first <- err
	}()
	for func() int { s.mu.Lock(); defer s.mu.Unlock(); return s.running }() < 1 {
		time.Sleep(100 * time.Microsecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	second := make(chan error, 1)
	go func() {
		_, _, err := s.Threshold(ctx, nil, stubQuery("b", 2))
		second <- err
	}()
	waitQueueDepth(t, s, 1)
	cancel()
	if err := <-second; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v", err)
	}
	waitQueueDepth(t, s, 0)

	third := make(chan error, 1)
	go func() {
		_, _, err := s.Threshold(context.Background(), nil, stubQuery("c", 3))
		third <- err
	}()
	waitQueueDepth(t, s, 1)
	close(b.gate)
	if err := <-first; err != nil {
		t.Fatalf("first query: %v", err)
	}
	select {
	case err := <-third:
		if err != nil {
			t.Fatalf("query after cancelled waiter: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("slot leaked by the cancelled waiter: third query never ran")
	}
}

// TestSchedPriorityInversionBounded parks one low-priority waiter under a
// stream of high-priority arrivals and checks it is granted after at most
// MaxBypass bypasses.
func TestSchedPriorityInversionBounded(t *testing.T) {
	defer obs.VerifyNoLeaks(t)
	b := newStub(t)
	b.gate = make(chan struct{})
	s, err := New(b, Config{
		MaxConcurrent: 1,
		MaxBypass:     2,
		Pools: map[string]Pool{
			"vip": {Priority: 10},
			"low": {Priority: 0},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	done := make(chan error, 7)
	go func() { // holds the slot while the queue builds
		_, _, err := s.Threshold(context.Background(), nil, stubQuery("hold", 0.5))
		done <- err
	}()
	for func() int { s.mu.Lock(); defer s.mu.Unlock(); return s.running }() < 1 {
		time.Sleep(100 * time.Microsecond)
	}
	// Low arrives first, then five VIPs pile up behind it.
	go func() {
		_, _, err := s.Threshold(context.Background(), nil, stubQuery("low", 1))
		done <- err
	}()
	waitQueueDepth(t, s, 1)
	for i := 0; i < 5; i++ {
		go func() {
			_, _, err := s.Threshold(context.Background(), nil, stubQuery("vip", 2))
			done <- err
		}()
		waitQueueDepth(t, s, 2+i)
	}
	close(b.gate)
	for i := 0; i < 7; i++ {
		if err := <-done; err != nil {
			t.Fatalf("query failed: %v", err)
		}
	}
	b.mu.Lock()
	order := append([]string(nil), b.order...)
	b.mu.Unlock()
	want := []string{"hold", "vip", "vip", "low", "vip", "vip", "vip"}
	if len(order) != len(want) {
		t.Fatalf("ran %d queries, want %d: %v", len(order), len(want), order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order %v, want %v (low must be forced after MaxBypass=2 bypasses)", order, want)
		}
	}
}

// TestSchedSealRaceExactlyOnce hammers one batch key from many goroutines
// with a tiny window and tiny batches, so joins race seals and handoffs
// constantly. Every query must be answered exactly once with its own answer.
func TestSchedSealRaceExactlyOnce(t *testing.T) {
	defer obs.VerifyNoLeaks(t)
	// Solo calls take a little while, so followers find their key in flight
	// and batches form.
	b := &slowStub{stubBackend: newStub(t), delay: 200 * time.Microsecond}
	s, err := New(b, Config{
		MaxConcurrent: 32,
		BatchWindow:   200 * time.Microsecond,
		MaxBatch:      4,
	})
	if err != nil {
		t.Fatal(err)
	}

	const clients, queries = 32, 200
	var next atomic.Int64
	var delivered atomic.Int64
	errCh := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= queries {
					errCh <- nil
					return
				}
				// Unique threshold per query: the answer must be the
				// member's own, not a batch sibling's.
				th := 1 + float64(i)/queries
				pts, stats, err := s.Threshold(context.Background(), nil, stubQuery("viz", th))
				if err != nil {
					errCh <- fmt.Errorf("query %d: %w", i, err)
					return
				}
				if len(pts) != 1 || pts[0].Value != float32(th) {
					errCh <- fmt.Errorf("query %d got sibling answer %v, want value %g", i, pts, th)
					return
				}
				if stats == nil || stats.Coverage != 1 {
					errCh <- fmt.Errorf("query %d stats = %+v", i, stats)
					return
				}
				delivered.Add(1)
			}
		}()
	}
	wg.Wait()
	s.Close()
	for c := 0; c < clients; c++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	if got := int(delivered.Load()); got != queries {
		t.Fatalf("%d answers delivered, want %d", got, queries)
	}
	b.mu.Lock()
	evaluated := b.thresholds + b.batchMembers
	batchCalls := b.batchCalls
	b.mu.Unlock()
	if evaluated != queries {
		t.Fatalf("backend evaluated %d members for %d queries (drop or double-evaluation)", evaluated, queries)
	}
	if batchCalls == 0 {
		t.Error("no batch ever formed under 32 concurrent clients")
	}
}

// TestSchedCloseSemantics: Close fails parked waiters with ErrClosed,
// flushes open batching windows so admitted members still get answers, and
// rejects new queries. Idempotent.
func TestSchedCloseSemantics(t *testing.T) {
	defer obs.VerifyNoLeaks(t)
	b := newStub(t)
	b.gate = make(chan struct{})
	s, err := New(b, Config{MaxConcurrent: 1})
	if err != nil {
		t.Fatal(err)
	}
	first := make(chan error, 1)
	go func() {
		_, _, err := s.Threshold(context.Background(), nil, stubQuery("a", 1))
		first <- err
	}()
	for func() int { s.mu.Lock(); defer s.mu.Unlock(); return s.running }() < 1 {
		time.Sleep(100 * time.Microsecond)
	}
	parked := make(chan error, 1)
	go func() {
		_, _, err := s.Threshold(context.Background(), nil, stubQuery("b", 2))
		parked <- err
	}()
	waitQueueDepth(t, s, 1)
	// Close while the slot is still held: the parked waiter must fail, the
	// running query must finish untouched once the gate opens.
	s.Close()
	if err := <-parked; !errors.Is(err, ErrClosed) {
		t.Fatalf("parked waiter got %v, want ErrClosed", err)
	}
	close(b.gate)
	if err := <-first; err != nil {
		t.Fatalf("running query interrupted by Close: %v", err)
	}
	if _, _, err := s.Threshold(context.Background(), nil, stubQuery("c", 3)); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close query got %v, want ErrClosed", err)
	}
	s.Close() // idempotent

	// A batch open at Close time is flushed, not dropped: a gated leader
	// keeps its key in flight, so the follower parks in an hour-long batch
	// that only the flush can release.
	b2 := newGated(t)
	s2, err := New(b2, Config{MaxConcurrent: 4, BatchWindow: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	leader := goThreshold(s2, context.Background(), stubQuery("leader", 1))
	awaitEntered(t, b2)
	batched := goThreshold(s2, context.Background(), stubQuery("a", 2))
	waitParked(t, s2, 1)
	s2.Close()
	if r := await(t, batched, "Close left a batching window parked"); r.err != nil {
		t.Fatalf("member parked in a flushed batch: %v", r.err)
	}
	close(b2.gate)
	if r := await(t, leader, "in-flight leader lost at Close"); r.err != nil {
		t.Fatalf("in-flight leader interrupted by Close: %v", r.err)
	}
}

// TestSchedWorkConserving: under an hour-long window, a query whose batch
// key is idle runs at once on the solo path, and a follower of an in-flight
// leader executes the moment the leader finishes — answered, failed or
// cancelled — never after the window.
func TestSchedWorkConserving(t *testing.T) {
	defer obs.VerifyNoLeaks(t)
	b := newGated(t)
	s, err := New(b, Config{MaxConcurrent: 8, BatchWindow: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	select {
	case r := <-goThreshold(s, context.Background(), stubQuery("viz", 1)):
		if r.err != nil {
			t.Fatal(r.err)
		}
	case <-time.After(time.Second):
		t.Fatal("lone query still waiting after 1 s: it waited for sharers")
	}
	b.mu.Lock()
	thresholds, batchCalls := b.thresholds, b.batchCalls
	b.mu.Unlock()
	if thresholds != 1 || batchCalls != 0 {
		t.Fatalf("lone query: %d solo, %d batch calls; want the solo path", thresholds, batchCalls)
	}

	// A leader cancelled mid-call still hands off to its follower.
	ctx, cancel := context.WithCancel(context.Background())
	leader := goThreshold(s, ctx, stubQuery("leader", 2))
	awaitEntered(t, b)
	follower := goThreshold(s, context.Background(), stubQuery("viz", 3))
	waitParked(t, s, 1)
	cancel()
	if r := await(t, leader, "cancelled leader never returned"); !errors.Is(r.err, context.Canceled) {
		t.Fatalf("cancelled leader returned %v", r.err)
	}
	if r := await(t, follower, "cancelled leader did not hand off"); r.err != nil || len(r.pts) != 1 || r.pts[0].Value != 3 {
		t.Fatalf("follower of a cancelled leader: %v %v", r.pts, r.err)
	}

	// A follower executes right after its leader's gate opens.
	leader = goThreshold(s, context.Background(), stubQuery("leader", 4))
	awaitEntered(t, b)
	follower = goThreshold(s, context.Background(), stubQuery("viz", 5))
	waitParked(t, s, 1)
	close(b.gate)
	if r := await(t, leader, "leader never returned"); r.err != nil || len(r.pts) != 1 || r.pts[0].Value != 4 {
		t.Fatalf("leader: %v %v", r.pts, r.err)
	}
	if r := await(t, follower, "follower waited out the window instead of the handoff"); r.err != nil || len(r.pts) != 1 || r.pts[0].Value != 5 {
		t.Fatalf("follower: %v %v", r.pts, r.err)
	}

	// The follower's executor drains just after it delivers.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		inflight, open := len(s.inflight), len(s.batches)
		s.mu.Unlock()
		if inflight == 0 && open == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after the burst: %d keys in flight, %d batches open", inflight, open)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestSchedUserScanSharesBatch: followers that differ only in a user Scan
// share one batch. The mediator sets Scan on every node request, so a
// user's Scan changes no answer and must not split a batch.
func TestSchedUserScanSharesBatch(t *testing.T) {
	defer obs.VerifyNoLeaks(t)
	b := newGated(t)
	s, err := New(b, Config{MaxConcurrent: 8, BatchWindow: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	leader := goThreshold(s, context.Background(), stubQuery("leader", 1))
	awaitEntered(t, b)
	var followers []<-chan answer
	for i, scan := range [][]morton.Range{{{Lo: 0, Hi: 4}}, {{Lo: 4, Hi: 8}}} {
		q := stubQuery("viz", float64(2+i))
		q.Scan = scan
		followers = append(followers, goThreshold(s, context.Background(), q))
	}
	waitParked(t, s, 2)
	close(b.gate)
	if r := await(t, leader, "leader never returned"); r.err != nil {
		t.Fatal(r.err)
	}
	for i, f := range followers {
		if r := await(t, f, "follower never returned"); r.err != nil || len(r.pts) != 1 || r.pts[0].Value != float32(2+i) {
			t.Fatalf("follower %d: %v %v", i, r.pts, r.err)
		}
	}
	b.mu.Lock()
	batchCalls, members := b.batchCalls, b.batchMembers
	b.mu.Unlock()
	if batchCalls != 1 || members != 2 {
		t.Fatalf("%d batch calls with %d members, want the two followers in one", batchCalls, members)
	}
}

// TestSchedQueueWaitAndPassthrough checks QueueWait lands on stats for all
// three query shapes and that PDF/TopK bypass batching but not admission.
func TestSchedQueueWaitAndPassthrough(t *testing.T) {
	defer obs.VerifyNoLeaks(t)
	b := newStub(t)
	s, err := New(b, Config{MaxConcurrent: 2, BatchWindow: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pts, stats, err := s.Threshold(context.Background(), nil, stubQuery("viz", 1))
	if err != nil || len(pts) != 1 {
		t.Fatalf("threshold: %v (%d pts)", err, len(pts))
	}
	if stats == nil || stats.QueueWait < 0 {
		t.Fatalf("threshold stats = %+v", stats)
	}
	counts, pstats, err := s.PDF(context.Background(), nil, query.PDF{Dataset: "stub", Field: "f", Bins: 1, Width: 1, Tenant: "viz"})
	if err != nil || len(counts) != 1 || pstats == nil {
		t.Fatalf("pdf: %v", err)
	}
	topk, kstats, err := s.TopK(context.Background(), nil, query.TopK{Dataset: "stub", Field: "f", K: 1, Tenant: "viz"})
	if err != nil || len(topk) != 1 || kstats == nil {
		t.Fatalf("topk: %v", err)
	}
	// An invalid query is rejected alone, before it can poison a batch.
	if _, _, err := s.Threshold(context.Background(), nil, query.Threshold{Field: "f", Threshold: 1}); err == nil {
		t.Error("invalid query accepted into a batch")
	}
}
