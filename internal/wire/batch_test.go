package wire

// Wire coverage for the shared-scan batch endpoint and the scheduler's
// tenant/quota vocabulary: the batch path must return byte-identical answers
// to solo calls, the new stats fields must be invisible to untouched
// clients, and an over-quota shed must cross HTTP as a typed, transient
// error.

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sched"
)

// TestThresholdBatchOverWire drives the node batch endpoint end-to-end and
// checks every member's answer is Float32bits-identical to its solo call.
func TestThresholdBatchOverWire(t *testing.T) {
	clients, _ := startNodes(t, 2)
	qs := []query.Threshold{
		{Dataset: "mhd", Field: derived.Current, Threshold: 1.0},
		{Dataset: "mhd", Field: derived.Current, Threshold: 2.5,
			Box: grid.Box{Lo: grid.Point{X: 2, Y: 2, Z: 2}, Hi: grid.Point{X: 14, Y: 14, Z: 14}}},
		{Dataset: "mhd", Field: derived.Current, Threshold: 0.5,
			Box: grid.Box{Lo: grid.Point{X: 0, Y: 0, Z: 0}, Hi: grid.Point{X: 8, Y: 16, Z: 16}}},
	}
	for _, c := range clients {
		res, err := c.GetThresholdBatch(context.Background(), nil, qs)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Results) != len(qs) {
			t.Fatalf("batch returned %d results, want %d", len(res.Results), len(qs))
		}
		for i, q := range qs {
			if res.Errs[i] != nil {
				t.Fatalf("member %d: %v", i, res.Errs[i])
			}
			solo, err := c.GetThreshold(context.Background(), nil, q)
			if err != nil {
				t.Fatal(err)
			}
			got, want := res.Results[i].Points, solo.Points
			if len(got) != len(want) {
				t.Fatalf("member %d: %d points batched, %d solo", i, len(got), len(want))
			}
			for j := range got {
				if got[j].Code != want[j].Code ||
					math.Float32bits(got[j].Value) != math.Float32bits(want[j].Value) {
					t.Fatalf("member %d point %d: batched %+v != solo %+v", i, j, got[j], want[j])
				}
			}
		}
		if res.AtomsScanned == 0 {
			t.Error("batch response lost AtomsScanned over the wire")
		}
	}
}

// TestThresholdBatchMemberErrorOverWire checks a per-member rejection stays
// typed across the wire while the other members still answer.
func TestThresholdBatchMemberErrorOverWire(t *testing.T) {
	clients, _ := startNodes(t, 1)
	qs := []query.Threshold{
		{Dataset: "mhd", Field: derived.Magnetic, Threshold: 0, Limit: 10}, // over the limit
		{Dataset: "mhd", Field: derived.Magnetic, Threshold: 1e9},          // empty but fine
	}
	res, err := clients[0].GetThresholdBatch(context.Background(), nil, qs)
	if err != nil {
		t.Fatal(err)
	}
	var tooMany *query.ErrTooManyPoints
	if !errors.As(res.Errs[0], &tooMany) {
		t.Fatalf("member 0 error = %v, want typed ErrTooManyPoints", res.Errs[0])
	}
	if !errors.Is(res.Errs[0], query.ErrThresholdTooLow) {
		t.Error("typed member error lost over the wire")
	}
	if res.Errs[1] != nil || res.Results[1] == nil {
		t.Fatalf("healthy member broken by sick sibling: err=%v", res.Errs[1])
	}
}

// TestOverQuotaOverWire checks the scheduler's shed error crosses HTTP as
// 429 + kind "over_quota" and comes back as the same typed, transient error.
func TestOverQuotaOverWire(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		jsonCodec{}.encode(w, PathThreshold, nil, &sched.ErrOverQuota{Tenant: "batch", Queued: 64, Limit: 64})
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	_, err := c.exchange(context.Background(), PathThreshold, ThresholdRequest{})
	var oq *sched.ErrOverQuota
	if !errors.As(err, &oq) {
		t.Fatalf("err = %v, want typed ErrOverQuota", err)
	}
	if oq.Tenant != "batch" || oq.Queued != 64 || oq.Limit != 64 {
		t.Errorf("shed details lost over the wire: %+v", oq)
	}
	if !faulttol.Transient(err) {
		t.Error("over-quota shed must classify transient (retry later)")
	}
}

// TestBatchDTORoundTrip checks the batch request preserves every member
// through the DTO conversion, tenant included.
func TestBatchDTORoundTrip(t *testing.T) {
	qs := []query.Threshold{
		{Dataset: "d", Field: "f", Timestep: 2, Threshold: 3.5, FDOrder: 6, Limit: 99, Tenant: "viz"},
		{Dataset: "d", Field: "f", Timestep: 2, Threshold: 1.25,
			Box: grid.Box{Lo: grid.Point{X: 1, Y: 2, Z: 3}, Hi: grid.Point{X: 4, Y: 5, Z: 6}}},
	}
	req := ThresholdBatchRequest{Queries: make([]ThresholdRequest, len(qs))}
	for i, q := range qs {
		req.Queries[i] = ThresholdRequestFor(q)
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var back ThresholdBatchRequest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if got := back.Queries[i].ToQuery(); !reflect.DeepEqual(got, qs[i]) {
			t.Errorf("member %d round trip: %+v vs %+v", i, got, qs[i])
		}
	}
}

// TestStatsWireCompat pins the backward-compatibility contract: requests and
// responses that do not use the scheduler fields marshal byte-identically to
// the pre-scheduler wire format, so untouched clients and servers never see
// the new keys.
func TestStatsWireCompat(t *testing.T) {
	newKeys := []string{"tenant", "queueWaitMs", "sharedScan", "scansSaved"}
	for name, v := range map[string]any{
		"thresholdRequest": ThresholdRequestFor(query.Threshold{Dataset: "mhd", Field: "f", Threshold: 1}),
		"pdfRequest":       PDFRequestFor(query.PDF{Dataset: "mhd", Field: "f", Bins: 4, Width: 1}),
		"topkRequest":      TopKRequestFor(query.TopK{Dataset: "mhd", Field: "f", K: 3}),
		"thresholdResponse": ThresholdResponse{
			Points: []PointDTO{{Code: 1, Value: 2}}, FromCache: true, Coverage: 1,
		},
		"errorResponse": ErrorResponse{Error: "boom", Kind: "threshold_too_low", Seen: 9, Limit: 5},
	} {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		for _, k := range newKeys {
			if _, ok := m[k]; ok {
				t.Errorf("%s: scheduler-era key %q leaks into a zero-valued body: %s", name, k, data)
			}
		}
	}
}
