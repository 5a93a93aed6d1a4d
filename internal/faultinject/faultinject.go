// Package faultinject provides deterministic fault injection for chaos
// tests of the distributed query path: an http.RoundTripper wrapper that
// fails, delays, hangs, truncates or rewrites responses, and a
// node.PeerFetcher wrapper that drops halo atoms or fails fetches.
//
// Faults are described by Rules collected in a Plan. A rule triggers by
// call count (fire starting with the After-th matching call, for Count
// calls) and optionally by probability drawn from a seeded source, so a
// given (plan, seed, call sequence) always injects the same faults —
// chaos tests stay reproducible.
//
// Injected errors implement the faulttol Transient marker (they model
// availability faults), so retry policies and circuit breakers exercise
// their real production paths.
package faultinject

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/node"
	"github.com/turbdb/turbdb/internal/sim"
)

// Mode selects what a triggered rule does to the call.
type Mode int

const (
	// ModeError fails the call with an *InjectedError (transient).
	ModeError Mode = iota
	// ModeDelay sleeps Rule.Delay (honoring ctx) and then forwards.
	ModeDelay
	// ModeHang blocks until the caller's context is done and returns its
	// error — a dead peer that never answers.
	ModeHang
	// ModePartial forwards the call but truncates the response: an HTTP
	// body is cut after Rule.TruncateTo bytes (ending in
	// io.ErrUnexpectedEOF), a peer fetch keeps only Rule.TruncateTo atoms.
	ModePartial
	// ModeStatus short-circuits an HTTP call with a synthetic response
	// carrying Rule.Status (peer fetches treat it as ModeError).
	ModeStatus
)

func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModeDelay:
		return "delay"
	case ModeHang:
		return "hang"
	case ModePartial:
		return "partial"
	case ModeStatus:
		return "status"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// InjectedError is the failure ModeError produces. It classifies as
// transient so the fault-tolerance stack treats it like a real
// availability fault.
type InjectedError struct {
	// Key is the call key the rule matched (URL path or raw-field name).
	Key string
	// Call is the 0-based index of the matching call that triggered.
	Call int
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultinject: injected fault on %q (call %d)", e.Key, e.Call)
}

// Transient marks injected faults as retryable availability errors.
func (e *InjectedError) Transient() bool { return true }

// Rule describes one fault. The zero value fires ModeError on every call.
type Rule struct {
	// Match is a substring of the call key (URL path for HTTP, raw-field
	// name for peer fetches); empty matches every call.
	Match string
	// After skips the first After matching calls (0 = fire immediately).
	After int
	// Count limits how many calls fire (0 = every call from After on).
	Count int
	// Prob fires probabilistically (from the plan's seeded source);
	// 0 means always fire. Counted calls that lose the draw still consume
	// their call index, keeping sequences reproducible per seed.
	Prob float64

	Mode Mode
	// Err overrides the injected error for ModeError (default
	// *InjectedError).
	Err error
	// Delay is the ModeDelay duration.
	Delay time.Duration
	// TruncateTo is the ModePartial budget: body bytes for HTTP, atom
	// count for peer fetches.
	TruncateTo int
	// Status is the synthetic HTTP status for ModeStatus.
	Status int

	seen int // matching calls observed; Plan.mu protects it
}

// Plan is a shared, concurrency-safe set of fault rules with one seeded
// randomness source. The same Plan may back several transports and peer
// fetchers; counts are per rule across all of them.
type Plan struct {
	mu    sync.Mutex
	rules []*Rule
	rng   *rand.Rand
	fired int
}

// NewPlan builds a plan over rules with a deterministic source for
// probabilistic rules.
func NewPlan(seed int64, rules ...*Rule) *Plan {
	return &Plan{rules: rules, rng: rand.New(rand.NewSource(seed))}
}

// Fired reports how many faults the plan has injected so far.
func (p *Plan) Fired() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fired
}

// evaluate registers one call with key and returns the first rule that
// triggers for it, or nil.
func (p *Plan) evaluate(key string) (*Rule, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var hit *Rule
	call := -1
	for _, r := range p.rules {
		if r.Match != "" && !strings.Contains(key, r.Match) {
			continue
		}
		n := r.seen
		r.seen++
		if hit != nil {
			continue // count the call for every matching rule, fire the first
		}
		if n < r.After {
			continue
		}
		if r.Count > 0 && n >= r.After+r.Count {
			continue
		}
		if r.Prob > 0 && p.rng.Float64() >= r.Prob {
			continue
		}
		hit = r
		call = n
	}
	if hit != nil {
		p.fired++
	}
	return hit, call
}

func (r *Rule) injectedErr(key string, call int) error {
	if r.Err != nil {
		return r.Err
	}
	return &InjectedError{Key: key, Call: call}
}

// sleepCtx waits for d or the context, whichever first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Transport is a fault-injecting http.RoundTripper.
type Transport struct {
	next http.RoundTripper
	plan *Plan
}

// NewTransport wraps next (nil = http.DefaultTransport) with plan.
func NewTransport(next http.RoundTripper, plan *Plan) *Transport {
	if next == nil {
		next = http.DefaultTransport
	}
	return &Transport{next: next, plan: plan}
}

// RoundTrip implements http.RoundTripper. The call key is the URL path.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	rule, call := t.plan.evaluate(req.URL.Path)
	if rule == nil {
		return t.next.RoundTrip(req)
	}
	switch rule.Mode {
	case ModeError:
		return nil, rule.injectedErr(req.URL.Path, call)
	case ModeDelay:
		if err := sleepCtx(req.Context(), rule.Delay); err != nil {
			return nil, err
		}
		return t.next.RoundTrip(req)
	case ModeHang:
		<-req.Context().Done()
		return nil, req.Context().Err()
	case ModeStatus:
		status := rule.Status
		if status == 0 {
			status = http.StatusServiceUnavailable
		}
		body := fmt.Sprintf(`{"error":"faultinject: synthetic %d"}`, status)
		return &http.Response{
			StatusCode: status,
			Status:     fmt.Sprintf("%d %s", status, http.StatusText(status)),
			Proto:      "HTTP/1.1",
			ProtoMajor: 1,
			ProtoMinor: 1,
			Header:     http.Header{"Content-Type": []string{"application/json"}},
			Body:       io.NopCloser(bytes.NewReader([]byte(body))),
			Request:    req,
		}, nil
	case ModePartial:
		resp, err := t.next.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		resp.Body = &truncatingBody{r: resp.Body, remaining: rule.TruncateTo}
		resp.ContentLength = -1
		resp.Header.Del("Content-Length")
		return resp, nil
	}
	return t.next.RoundTrip(req)
}

// truncatingBody delivers at most remaining bytes, then fails with
// io.ErrUnexpectedEOF — a connection cut mid-response.
type truncatingBody struct {
	r         io.ReadCloser
	remaining int
}

func (b *truncatingBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if len(p) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.r.Read(p)
	b.remaining -= n
	if err == io.EOF && b.remaining <= 0 {
		// The real body ended exactly at the cut; still report the cut so
		// decoders fail rather than accept a short payload silently.
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (b *truncatingBody) Close() error { return b.r.Close() }

// PeerFetcher wraps a node.PeerFetcher with fault injection. The call key
// is the raw-field name.
type PeerFetcher struct {
	next node.PeerFetcher
	plan *Plan
}

// NewPeerFetcher wraps next with plan.
func NewPeerFetcher(next node.PeerFetcher, plan *Plan) *PeerFetcher {
	return &PeerFetcher{next: next, plan: plan}
}

// FetchAtoms implements node.PeerFetcher.
func (f *PeerFetcher) FetchAtoms(ctx context.Context, p *sim.Proc, rawField string, step int, codes []morton.Code) (map[morton.Code][]byte, error) {
	rule, call := f.plan.evaluate(rawField)
	if rule == nil {
		return f.next.FetchAtoms(ctx, p, rawField, step, codes)
	}
	switch rule.Mode {
	case ModeError, ModeStatus:
		return nil, rule.injectedErr(rawField, call)
	case ModeDelay:
		if err := sleepCtx(ctx, rule.Delay); err != nil {
			return nil, err
		}
		return f.next.FetchAtoms(ctx, p, rawField, step, codes)
	case ModeHang:
		<-ctx.Done()
		return nil, ctx.Err()
	case ModePartial:
		m, err := f.next.FetchAtoms(ctx, p, rawField, step, codes)
		if err != nil {
			return nil, err
		}
		if len(m) <= rule.TruncateTo {
			return m, nil
		}
		kept := make([]morton.Code, 0, len(m))
		for c := range m {
			kept = append(kept, c)
		}
		sort.Slice(kept, func(i, j int) bool { return kept[i] < kept[j] })
		out := make(map[morton.Code][]byte, rule.TruncateTo)
		for _, c := range kept[:rule.TruncateTo] {
			out[c] = m[c]
		}
		return out, nil
	}
	return f.next.FetchAtoms(ctx, p, rawField, step, codes)
}
