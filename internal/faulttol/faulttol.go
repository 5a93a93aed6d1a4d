// Package faulttol provides the fault-tolerance building blocks of the
// distributed query path: a retry policy with exponential backoff and
// jitter, a transient/permanent error classifier for wire errors, a
// per-node circuit breaker, a deadline budget that keeps retries inside
// the caller's context deadline, and the replica failover loop
// (Failover) both hops of a query run.
//
// The mediator wraps every node RPC in an Executor (policy + breaker);
// the wire peer set does the same for halo fetches. All waiting is
// context-aware and injectable, so tests run on a deterministic clock
// with no wall-time sleeps.
package faulttol

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"syscall"
	"time"

	"github.com/turbdb/turbdb/internal/obs"
)

// Process-wide fault-tolerance metrics. The transition counters aggregate
// over all breakers; per-node breaker state gauges are registered by the
// holders (mediator, wire peer set) via BreakerConfig.OnTransition, which
// knows which node a breaker guards.
var (
	mRetries          = obs.Default().Counter("turbdb_retry_total")
	mBreakerToOpen    = obs.Default().Counter(`turbdb_breaker_transitions_total{to="open"}`)
	mBreakerToHalf    = obs.Default().Counter(`turbdb_breaker_transitions_total{to="half-open"}`)
	mBreakerToClosed  = obs.Default().Counter(`turbdb_breaker_transitions_total{to="closed"}`)
	mBreakerFastFails = obs.Default().Counter("turbdb_breaker_fastfail_total")
)

// TransientMarker is implemented by errors that know their own retry
// class. wire.StatusError (5xx vs 4xx) and the fault injector's errors
// implement it.
type TransientMarker interface {
	Transient() bool
}

// Transient reports whether err looks like a temporary availability
// failure worth retrying (and, in partial mode, worth degrading around):
// network errors, timeouts, connection resets and refusals, truncated
// responses, and anything that self-reports via TransientMarker.
// Context cancellation is NOT transient: the caller gave up.
func Transient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) {
		return false
	}
	var tm TransientMarker
	if errors.As(err, &tm) {
		return tm.Transient()
	}
	if errors.Is(err, context.DeadlineExceeded) {
		// A per-attempt deadline is retryable; the deadline budget stops
		// the loop once the caller's own deadline is spent.
		return true
	}
	if errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) {
		return true
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// Policy is a retry policy: exponential backoff with jitter, bounded by
// MaxAttempts and by the caller's context deadline. The zero value
// retries 3 times with 50 ms base delay.
type Policy struct {
	// MaxAttempts is the total number of attempts (1 = no retries).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry.
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth.
	MaxDelay time.Duration
	// Multiplier grows the delay between retries (default 2).
	Multiplier float64
	// Jitter randomizes each delay by ±Jitter fraction (default 0.2).
	Jitter float64
	// Classify decides whether an error is worth retrying; nil uses
	// Transient.
	Classify func(error) bool
	// Sleep replaces the context-aware backoff wait; nil uses a real
	// timer. Tests inject a deterministic clock here.
	Sleep func(ctx context.Context, d time.Duration) error
	// Now replaces time.Now for the deadline-budget arithmetic; nil uses
	// the wall clock. Tests pair it with Sleep.
	Now func() time.Time
	// Rand supplies jitter randomness in [0,1); nil uses math/rand.
	Rand func() float64
}

// DefaultPolicy is the retry policy the mediator and peer set use when
// none is configured.
func DefaultPolicy() Policy {
	return Policy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second}
}

// withDefaults fills zero fields.
func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay < 0 {
		p.BaseDelay = 0
	}
	if p.Multiplier <= 1 {
		p.Multiplier = 2
	}
	if p.Jitter <= 0 {
		p.Jitter = 0.2
	}
	if p.Classify == nil {
		p.Classify = Transient
	}
	if p.Sleep == nil {
		p.Sleep = sleepCtx
	}
	if p.Now == nil {
		p.Now = time.Now
	}
	if p.Rand == nil {
		p.Rand = rand.Float64
	}
	return p
}

// sleepCtx waits d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// AttemptsError wraps the final error of an exhausted retry loop and
// records how many attempts ran and why the loop stopped.
type AttemptsError struct {
	// Attempts is the number of attempts performed.
	Attempts int
	// BudgetExhausted reports that retries stopped because the next
	// backoff would overrun the caller's deadline, not because
	// MaxAttempts was reached.
	BudgetExhausted bool
	// Err is the last attempt's error.
	Err error
}

func (e *AttemptsError) Error() string {
	why := "attempts exhausted"
	if e.BudgetExhausted {
		why = "deadline budget exhausted"
	}
	return fmt.Sprintf("faulttol: %s after %d attempt(s): %v", why, e.Attempts, e.Err)
}

func (e *AttemptsError) Unwrap() error { return e.Err }

// Do runs op with retries. Transient failures (per Classify) are retried
// with exponential backoff and jitter until MaxAttempts, the context, or
// the deadline budget runs out; the backoff wait itself aborts as soon
// as the context is canceled. Retries never start once the caller's
// deadline cannot accommodate the next backoff: the last real error is
// returned instead of a guaranteed-late attempt.
func (p Policy) Do(ctx context.Context, op func(context.Context) error) error {
	p = p.withDefaults()
	delay := p.BaseDelay
	var err error
	for attempt := 1; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			if err != nil {
				return &AttemptsError{Attempts: attempt - 1, BudgetExhausted: true, Err: err}
			}
			return cerr
		}
		err = op(ctx)
		if err == nil || !p.Classify(err) {
			return err
		}
		if attempt >= p.MaxAttempts {
			return &AttemptsError{Attempts: attempt, Err: err}
		}
		d := p.jittered(delay)
		if dl, ok := ctx.Deadline(); ok && dl.Sub(p.Now()) <= d {
			return &AttemptsError{Attempts: attempt, BudgetExhausted: true, Err: err}
		}
		if serr := p.Sleep(ctx, d); serr != nil {
			return &AttemptsError{Attempts: attempt, BudgetExhausted: true, Err: err}
		}
		mRetries.Inc()
		delay = time.Duration(float64(delay) * p.Multiplier)
		if p.MaxDelay > 0 && delay > p.MaxDelay {
			delay = p.MaxDelay
		}
	}
}

// jittered spreads d by ±Jitter.
func (p Policy) jittered(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	f := 1 + p.Jitter*(2*p.Rand()-1)
	return time.Duration(float64(d) * f)
}

// Executor bundles a retry policy with a per-node circuit breaker — the
// unit the mediator holds per database node.
type Executor struct {
	Policy  Policy
	Breaker *Breaker
}

// Do runs op under the breaker and the retry policy. When the breaker
// is open the call fails fast with ErrCircuitOpen (no attempt is made);
// otherwise the outcome of the whole retry loop is recorded as one
// breaker observation. Only transient-class failures count against the
// breaker: a permanent error (bad query) says nothing about node health.
func (e *Executor) Do(ctx context.Context, op func(context.Context) error) error {
	if e == nil {
		return op(ctx)
	}
	if e.Breaker != nil {
		if err := e.Breaker.Allow(); err != nil {
			return err
		}
	}
	err := e.Policy.Do(ctx, op)
	if e.Breaker != nil {
		if err == nil {
			e.Breaker.RecordSuccess()
		} else if Transient(err) {
			e.Breaker.RecordFailure()
		} else {
			// A well-formed rejection proves the node is alive.
			e.Breaker.RecordSuccess()
		}
	}
	return err
}

// State is a circuit breaker state.
type State int

const (
	// Closed lets calls through (healthy).
	Closed State = iota
	// Open fails calls fast until the cooldown elapses.
	Open
	// HalfOpen lets one probe through to test recovery.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// circuitOpenError fails fast while a breaker is open. It classifies as
// transient so partial-mode mediators degrade around the node instead of
// failing the whole query.
type circuitOpenError struct{}

func (circuitOpenError) Error() string   { return "faulttol: circuit open" }
func (circuitOpenError) Transient() bool { return true }

// ErrCircuitOpen is returned by Executor.Do / Breaker.Allow while the
// breaker is open.
var ErrCircuitOpen error = circuitOpenError{}

// BreakerConfig tunes a Breaker. The zero value opens after 5
// consecutive failures and probes again after 5 seconds.
type BreakerConfig struct {
	// FailureThreshold is the consecutive-failure count that opens the
	// circuit.
	FailureThreshold int
	// Cooldown is how long the circuit stays open before a half-open
	// probe is allowed.
	Cooldown time.Duration
	// Now replaces time.Now (tests inject a deterministic clock).
	Now func() time.Time
	// OnTransition, if set, is called after every state change with the
	// old and new state (outside the breaker's lock, so it may call back
	// into the breaker). The mediator uses it to keep per-node breaker
	// state gauges.
	OnTransition func(from, to State)
}

// Breaker is a per-node circuit breaker: N consecutive failures open it,
// the cooldown expiring half-opens it, and a successful probe closes it.
// Safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	//turbdb:lockrank faulttol.breaker 55
	mu          sync.Mutex
	state       State
	consecFails int
	openedAt    time.Time
	probing     bool // a half-open probe is in flight; guarded by mu
}

// NewBreaker builds a breaker, applying defaults to zero config fields.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = 5
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 5 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Breaker{cfg: cfg}
}

// Allow reports whether a call may proceed. While open it returns
// ErrCircuitOpen until the cooldown elapses, then admits exactly one
// half-open probe at a time.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	switch b.state {
	case Closed:
		b.mu.Unlock()
		return nil
	case Open:
		if b.cfg.Now().Sub(b.openedAt) < b.cfg.Cooldown {
			b.mu.Unlock()
			mBreakerFastFails.Inc()
			return ErrCircuitOpen
		}
		b.state = HalfOpen
		b.probing = true
		b.mu.Unlock()
		b.noteTransition(Open, HalfOpen)
		return nil
	case HalfOpen:
		if b.probing {
			b.mu.Unlock()
			mBreakerFastFails.Inc()
			return ErrCircuitOpen
		}
		b.probing = true
		b.mu.Unlock()
		return nil
	}
	b.mu.Unlock()
	return nil
}

// RecordSuccess notes a successful (or permanently-rejected, i.e.
// node-is-alive) call.
func (b *Breaker) RecordSuccess() {
	b.mu.Lock()
	from := b.state
	b.state = Closed
	b.consecFails = 0
	b.probing = false
	b.mu.Unlock()
	b.noteTransition(from, Closed)
}

// RecordFailure notes a transient-class failure; the threshold'th
// consecutive one opens the circuit, and a failed half-open probe
// re-opens it for a fresh cooldown.
func (b *Breaker) RecordFailure() {
	b.mu.Lock()
	from := b.state
	b.consecFails++
	b.probing = false
	if b.state == HalfOpen || b.consecFails >= b.cfg.FailureThreshold {
		b.state = Open
		b.openedAt = b.cfg.Now()
	}
	to := b.state
	b.mu.Unlock()
	b.noteTransition(from, to)
}

// noteTransition records a state change in the transition counters and
// invokes the holder's OnTransition hook. No-op when the state did not
// actually change.
func (b *Breaker) noteTransition(from, to State) {
	if from == to {
		return
	}
	switch to {
	case Open:
		mBreakerToOpen.Inc()
	case HalfOpen:
		mBreakerToHalf.Inc()
	case Closed:
		mBreakerToClosed.Inc()
	}
	if b.cfg.OnTransition != nil {
		b.cfg.OnTransition(from, to)
	}
}

// State returns the current breaker state (half-open is reported as soon
// as the cooldown has elapsed, even before the first probe).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Open && b.cfg.Now().Sub(b.openedAt) >= b.cfg.Cooldown {
		return HalfOpen
	}
	return b.state
}
