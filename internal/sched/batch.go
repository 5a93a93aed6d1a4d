package sched

// Shared-scan batching, group-commit shaped: a threshold query whose
// query.BatchKey (dataset, field, order, step) is idle — no open batch, nothing
// in flight — runs now, alone, on its caller's goroutine. Queries arriving
// while the key is in flight open or join a batch, which executes when the
// key's in-flight work drains to zero (the handoff) or when its
// Config.BatchWindow timer fires, whichever is first — or when Close
// flushes it, or every member gives up. A batch executes as ONE backend
// call (Mediator.ThresholdBatch → one node-side pass over the union of the
// members' boxes), counts as in flight itself, and each member receives
// exactly the answer its solo call would have produced.
//
// The seal race is settled under the scheduler mutex: the executor marks
// the batch sealed and snapshots its members in one critical section, and
// joiners only append to unsealed batches — so a query that arrives as the
// batch seals opens the next batch instead. No member is ever dropped or
// evaluated twice.

import (
	"context"
	"time"

	"github.com/turbdb/turbdb/internal/mediator"
	"github.com/turbdb/turbdb/internal/obs"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sim"
)

// memberResult is what the executor hands one member.
type memberResult struct {
	pts   []query.ResultPoint
	stats *mediator.QueryStats
	err   error
	spans []obs.Span // the batch's fan-out span tree, grafted per member
}

// member is one query parked in a batch.
type member struct {
	q    query.Threshold
	done chan memberResult // buffered(1); executor sends exactly once
}

// batch is one open batching window.
type batch struct {
	key    query.BatchKey
	ctx    context.Context
	cancel context.CancelFunc
	trace  *obs.Trace
	// sealed, live and members are owned by the Scheduler's mutex (the
	// struct-spanning sched.state lock; lockcheck can only model
	// same-struct guards): joins, seals and the live countdown all happen
	// under it, and the executor reads members only after the seal.
	flush   chan struct{} // closed by Close: execute now
	handoff chan struct{} // closed (once, under mu) when the key drains: execute now
	sealed  bool
	live    int       // members still waiting on the fanned-out result
	members []*member // append-only until sealed
}

// runBatched evaluates one admitted threshold query: at once when its key
// is idle, else through a batch. The member holds its admission slot for
// the whole wait, so MaxConcurrent bounds in-flight queries whether or not
// they share scans.
func (s *Scheduler) runBatched(ctx context.Context, p *sim.Proc, q query.Threshold) ([]query.ResultPoint, *mediator.QueryStats, error) {
	// Normalize and validate up front: an invalid query must be rejected
	// alone, never poison a batch.
	domain := s.backend.Grid().Domain()
	nq := q.Normalize(domain)
	if err := nq.Validate(domain); err != nil {
		return nil, nil, err
	}
	key := nq.BatchKey()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, nil, ErrClosed
	}
	b := s.batches[key]
	if b == nil && s.inflight[key] == 0 {
		s.inflight[key]++
		s.mu.Unlock()
		defer s.drain(key) // a cancelled or failing leader still hands off
		return s.backend.Threshold(ctx, p, nq)
	}
	if b == nil || b.sealed || len(b.members) >= s.cfg.MaxBatch {
		b = s.newBatchLocked(ctx, key)
	}
	m := &member{q: nq, done: make(chan memberResult, 1)}
	b.members = append(b.members, m)
	b.live++
	s.mu.Unlock()

	_, bsp := obs.StartSpan(ctx, "batch")
	select {
	case r := <-m.done:
		bsp.Graft(r.spans)
		bsp.End()
		if r.stats != nil {
			// The batch executed on its own trace; the member's stats must
			// point at the member's.
			r.stats.Trace = obs.TraceFrom(ctx)
		}
		return r.pts, r.stats, r.err
	case <-ctx.Done():
		bsp.End()
		s.leaveBatch(b)
		return nil, nil, ctx.Err()
	}
}

// newBatchLocked opens a batch and spawns its executor. The batch context
// detaches from the opening member (whose own ctx may be cancelled while
// other members still want the answer) but carries a fresh trace whose
// spans are delivered to every member.
func (s *Scheduler) newBatchLocked(ctx context.Context, key query.BatchKey) *batch {
	btr := obs.NewTrace(obs.NewTraceID(), nil)
	bctx, cancel := context.WithCancel(obs.ContextWithTrace(context.WithoutCancel(ctx), btr))
	b := &batch{
		key: key, ctx: bctx, cancel: cancel, trace: btr,
		flush: make(chan struct{}), handoff: make(chan struct{}),
	}
	s.batches[key] = b
	s.wg.Add(1)
	go s.runBatchExec(b)
	return b
}

// leaveBatch records one member giving up (context cancelled while
// parked). The last leaver cancels the batch context, so an unexecuted
// batch aborts and an in-flight backend call is torn down.
func (s *Scheduler) leaveBatch(b *batch) {
	s.mu.Lock()
	b.live--
	last := b.live == 0
	s.mu.Unlock()
	if last {
		b.cancel()
	}
}

// drain ends one unit of the key's in-flight work. The last one out hands
// off to the key's open batch, if any, which then executes without waiting
// out its window.
func (s *Scheduler) drain(key query.BatchKey) {
	s.mu.Lock()
	s.inflight[key]--
	if s.inflight[key] == 0 {
		delete(s.inflight, key)
		if b := s.batches[key]; b != nil {
			// b may already be handed off: a full batch it replaced can
			// seal and drain before b's executor seals b.
			select {
			case <-b.handoff:
			default:
				close(b.handoff)
			}
		}
	}
	s.mu.Unlock()
}

// sealBatch closes the batch to joiners, snapshots its members and counts
// its execution in flight; the joiner check (b.sealed under mu) makes
// arrive-while-sealing queries open a fresh batch instead.
func (s *Scheduler) sealBatch(b *batch) []*member {
	s.mu.Lock()
	b.sealed = true
	s.inflight[b.key]++
	if s.batches[b.key] == b {
		delete(s.batches, b.key)
	}
	members := b.members
	s.mu.Unlock()
	return members
}

// runBatchExec waits for the handoff (at most the batching window), then
// evaluates the batch and fans results back out. Singleton batches take the
// solo backend path, never a batch fan-out.
func (s *Scheduler) runBatchExec(b *batch) {
	defer s.wg.Done()
	defer b.cancel()
	timer := time.NewTimer(s.cfg.BatchWindow)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-b.flush: // Close: execute what joined so far
	case <-b.handoff: // the key's in-flight work drained
	case <-b.ctx.Done(): // every member gave up
	}
	members := s.sealBatch(b)
	defer s.drain(b.key)
	if err := b.ctx.Err(); err != nil {
		for _, m := range members {
			m.done <- memberResult{err: err}
		}
		return
	}
	if len(members) == 1 {
		pts, stats, err := s.backend.Threshold(b.ctx, nil, members[0].q)
		members[0].done <- memberResult{pts: pts, stats: stats, err: err, spans: b.trace.Spans()}
		return
	}

	qs := make([]query.Threshold, len(members))
	for i, m := range members {
		qs[i] = m.q
	}
	_, fsp := obs.StartSpan(b.ctx, "fanout")
	answers, err := s.backend.ThresholdBatch(b.ctx, nil, qs)
	fsp.End()
	spans := b.trace.Spans()
	if err != nil {
		for _, m := range members {
			m.done <- memberResult{err: err, spans: spans}
		}
		return
	}
	mBatches.Inc()
	merged, saved := 0, 0
	for i, m := range members {
		a := answers[i]
		if a.Err == nil && a.Stats != nil {
			a.Stats.SharedScan = true
			merged++
			saved += a.Stats.ScansSaved
		}
		m.done <- memberResult{pts: a.Points, stats: a.Stats, err: a.Err, spans: spans}
	}
	mMerged.Add(int64(merged))
	mAtomsSaved.Add(int64(saved))
}
