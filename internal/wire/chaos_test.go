package wire

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/faultinject"
	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/mediator"
	"github.com/turbdb/turbdb/internal/query"
)

// chaosClients starts nNodes HTTP node services and rebuilds client `faulty`
// with the plan's fault-injecting transport.
func chaosClients(t *testing.T, nNodes, faulty int, plan *faultinject.Plan) []*Client {
	t.Helper()
	clients, _ := startNodes(t, nNodes)
	// The startNodes helper registered the plain client's URL; re-dial the
	// same service through the fault-injecting round tripper.
	base := clients[faulty]
	clients[faulty] = NewClient(baseURL(base), WithTransport(faultinject.NewTransport(nil, plan)))
	return clients
}

// baseURL exposes the client's target for test re-dialing.
func baseURL(c *Client) string { return c.base }

func fastRetryPolicy() *faulttol.Policy {
	return &faulttol.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
}

func wireMediator(t *testing.T, clients []*Client, allowPartial bool) *mediator.Mediator {
	t.Helper()
	mcs := make([]mediator.NodeClient, len(clients))
	for i, c := range clients {
		mcs[i] = c
	}
	m, err := mediator.New(mediator.Config{
		Nodes: mcs, AllowPartial: allowPartial, Retry: fastRetryPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func wireChaosQuery() query.Threshold {
	return query.Threshold{Dataset: "mhd", Field: derived.Current, Threshold: 1.0}
}

// TestWireChaosStrictFailure kills one node's query path at the transport:
// strict mode surfaces the injected failure after retries.
func TestWireChaosStrictFailure(t *testing.T) {
	plan := faultinject.NewPlan(7, &faultinject.Rule{Match: PathThreshold, Mode: faultinject.ModeError})
	clients := chaosClients(t, 2, 1, plan)
	m := wireMediator(t, clients, false)
	_, _, err := m.Threshold(context.Background(), nil, wireChaosQuery())
	if err == nil {
		t.Fatal("strict mediator answered despite transport faults")
	}
	var inj *faultinject.InjectedError
	if !errors.As(err, &inj) {
		t.Fatalf("err = %v, want injected transport error wrapped", err)
	}
	if plan.Fired() < 2 {
		t.Errorf("plan fired %d times, want ≥ 2 (retry must have happened)", plan.Fired())
	}
}

// TestWireChaosPartialCoverage: with AllowPartial the mediator answers from
// the surviving node and reports coverage < 1; /info still works on the
// faulty node (only the threshold path is killed), so assembly succeeds.
func TestWireChaosPartialCoverage(t *testing.T) {
	plan := faultinject.NewPlan(7, &faultinject.Rule{Match: PathThreshold, Mode: faultinject.ModeError})
	clients := chaosClients(t, 2, 1, plan)
	m := wireMediator(t, clients, true)
	pts, stats, err := m.Threshold(context.Background(), nil, wireChaosQuery())
	if err != nil {
		t.Fatalf("partial mediator failed: %v", err)
	}
	if len(pts) == 0 {
		t.Error("no points from the surviving node")
	}
	if stats.Coverage >= 1 || stats.Coverage <= 0 {
		t.Errorf("Coverage = %v, want in (0, 1)", stats.Coverage)
	}
	if len(stats.Failures) != 1 || stats.Failures[0].Node != 1 {
		t.Errorf("Failures = %+v, want exactly node 1", stats.Failures)
	}
}

// TestWireChaosRetryRecovers: a fault that clears after one hit is absorbed
// by the retry policy — the query succeeds with full coverage.
func TestWireChaosRetryRecovers(t *testing.T) {
	plan := faultinject.NewPlan(7, &faultinject.Rule{Match: PathThreshold, Mode: faultinject.ModeError, Count: 1})
	clients := chaosClients(t, 2, 1, plan)
	m := wireMediator(t, clients, false)
	pts, stats, err := m.Threshold(context.Background(), nil, wireChaosQuery())
	if err != nil {
		t.Fatalf("retry did not absorb a single transient fault: %v", err)
	}
	if len(pts) == 0 {
		t.Error("no points")
	}
	if len(stats.Failures) != 0 || stats.Coverage != 1 {
		t.Errorf("stats = %+v, want complete answer", stats)
	}
	if plan.Fired() != 1 {
		t.Errorf("plan fired %d times, want exactly 1", plan.Fired())
	}
}

// TestWireChaosDeadlineRespected: a hung node cannot hold a query past the
// caller's deadline — the context bounds the transport wait and the retry
// loop does not extend it.
func TestWireChaosDeadlineRespected(t *testing.T) {
	plan := faultinject.NewPlan(7, &faultinject.Rule{Match: PathThreshold, Mode: faultinject.ModeHang})
	clients := chaosClients(t, 1, 0, plan)
	m := wireMediator(t, clients, false)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := m.Threshold(ctx, nil, wireChaosQuery())
	if err == nil {
		t.Fatal("query succeeded against a hung node")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	// Generous bound: the deadline is 200ms; anything near the client's
	// 10-minute default would mean the ctx was not honored.
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("query took %v despite a 200ms deadline", elapsed)
	}
}

// TestWireTruncatedResponseIsTransient: a response cut mid-body surfaces as
// a decode error; the important property is the query fails cleanly rather
// than silently accepting a short payload.
func TestWireTruncatedResponse(t *testing.T) {
	plan := faultinject.NewPlan(7, &faultinject.Rule{Match: PathThreshold, Mode: faultinject.ModePartial, TruncateTo: 10})
	clients := chaosClients(t, 1, 0, plan)
	_, err := clients[0].GetThreshold(context.Background(), nil, wireChaosQuery())
	if err == nil {
		t.Fatal("truncated response accepted")
	}
}

// TestWireStatusErrorClassification: 5xx classifies transient, 4xx does
// not — the boundary the breaker and retry policy rely on.
func TestWireStatusErrorClassification(t *testing.T) {
	srv := httptest.NewServer(nil)
	srv.Close() // immediately dead: connection refused is a net error
	c := NewClient(srv.URL)
	_, err := c.GetThreshold(context.Background(), nil, wireChaosQuery())
	if err == nil {
		t.Fatal("dead server answered")
	}
	if !faulttol.Transient(err) {
		t.Errorf("connection-refused error not transient: %v", err)
	}

	if !(&StatusError{Status: 503}).Transient() {
		t.Error("503 must be transient")
	}
	if (&StatusError{Status: 400}).Transient() {
		t.Error("400 must not be transient")
	}
	plan := faultinject.NewPlan(7, &faultinject.Rule{Match: PathThreshold, Mode: faultinject.ModeStatus, Status: 503})
	clients := chaosClients(t, 1, 0, plan)
	_, err = clients[0].GetThreshold(context.Background(), nil, wireChaosQuery())
	var se *StatusError
	if !errors.As(err, &se) || !se.Transient() {
		t.Errorf("synthetic 503 → %v, want transient StatusError", err)
	}
}
