package wire

import (
	"encoding/json"
	"testing"

	"github.com/turbdb/turbdb/internal/query"
)

// mustJSON marshals a known-good wire value for use as a fuzz seed.
func mustJSON(f *testing.F, v any) []byte {
	f.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		f.Fatalf("marshal seed: %v", err)
	}
	return b
}

// FuzzRequestDecode feeds arbitrary bytes through the request decode path of
// every service endpoint: decoding must never panic, and a successfully
// decoded request must convert to its internal query form (and back, for the
// types with a *RequestFor inverse) without panicking.
func FuzzRequestDecode(f *testing.F) {
	box := &BoxDTO{Lo: [3]int{0, 0, 0}, Hi: [3]int{64, 64, 64}}
	f.Add(mustJSON(f, ThresholdRequest{Dataset: "mhd", Field: "vorticity", Timestep: 3, Threshold: 25.5, Box: box, FDOrder: 4, Limit: 1000}))
	f.Add(mustJSON(f, ThresholdRequest{Dataset: "mhd", Field: "vorticity", Threshold: 25.5, Tenant: "viz"}))
	f.Add(mustJSON(f, ThresholdRequest{Dataset: "mhd", Field: "vorticity", Threshold: 25.5, Scan: []RangeDTO{{Lo: 0, Hi: 1 << 20}}, TraceID: "t0", Trace: true}))
	f.Add(mustJSON(f, ThresholdBatchRequest{Queries: []ThresholdRequest{
		{Dataset: "mhd", Field: "vorticity", Threshold: 25.5, Tenant: "viz"},
		{Dataset: "mhd", Field: "vorticity", Threshold: 30, Box: box},
	}, TraceID: "t1"}))
	f.Add(mustJSON(f, PDFRequest{Dataset: "mhd", Field: "qcriterion", Timestep: 1, Bins: 64, Min: -1, Width: 0.125, Box: box}))
	f.Add(mustJSON(f, TopKRequest{Dataset: "mhd", Field: "norm", Timestep: 0, K: 16, FDOrder: 6}))
	f.Add(mustJSON(f, AtomsRequest{Field: "u", Timestep: 2, Codes: []uint64{0, 9, 511}}))
	f.Add(mustJSON(f, AtomsRequest{Field: "u", Codes: []uint64{0, 9}, Boxes: []byte{0, 0, 0, 8, 8, 8, 6, 0, 6, 8, 2, 8}}))
	f.Add([]byte(`{"field":"u","codes":[3],"boxes":"AAAACAgI"}`))
	f.Add(mustJSON(f, DropCacheRequest{Field: "vorticity", FDOrder: 4, Timestep: 3}))
	f.Add(mustJSON(f, SetProcessesRequest{Processes: 8}))
	f.Add([]byte(`{"box":{"lo":[1,2,3]}}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var tr ThresholdRequest
		if json.Unmarshal(data, &tr) == nil {
			q := tr.ToQuery()
			_ = ThresholdRequestFor(q)
		}
		var br ThresholdBatchRequest
		if json.Unmarshal(data, &br) == nil {
			for _, qr := range br.Queries {
				_ = ThresholdRequestFor(qr.ToQuery())
			}
		}
		var pr PDFRequest
		if json.Unmarshal(data, &pr) == nil {
			q := pr.ToQuery()
			_ = PDFRequestFor(q)
		}
		var kr TopKRequest
		if json.Unmarshal(data, &kr) == nil {
			q := kr.ToQuery()
			_ = TopKRequestFor(q)
		}
		var ar AtomsRequest
		if json.Unmarshal(data, &ar) == nil {
			_, _ = boxesFromDTO(ar.Boxes, len(ar.Codes), 8) //lint:allow droppederr hostile boxes must fail, never panic
		}
		var dr DropCacheRequest
		_ = json.Unmarshal(data, &dr)
		var sr SetProcessesRequest
		_ = json.Unmarshal(data, &sr)
	})
}

// FuzzResponseDecode does the same for the client-side response decode path,
// including the DTO→internal conversions a client performs on success.
func FuzzResponseDecode(f *testing.F) {
	bd := BreakdownDTO{CacheLookupMS: 0.5, IOMS: 12, ComputeMS: 80, CacheUpdateMS: 1, TotalMS: 93.5, AtomsRead: 16, HaloAtoms: 4, PointsExamined: 1 << 15, AtomsSkipped: 3}
	pts := []PointDTO{{Code: 0, Value: 1.5}, {Code: 73, Value: -2.25}}
	spans := []SpanDTO{{ID: 1, Name: "node.threshold", StartUS: 0, DurUS: 950}, {ID: 2, Parent: 1, Name: "io", StartUS: 10, DurUS: 800}}
	f.Add(mustJSON(f, ThresholdResponse{Points: pts, FromCache: true, Breakdown: bd}))
	f.Add(mustJSON(f, ThresholdResponse{Points: pts, Breakdown: bd, Spans: spans, Trace: &TraceDTO{ID: "t1", Spans: spans}}))
	f.Add(mustJSON(f, PDFResponse{Counts: []int64{1, 0, 42}, Breakdown: bd, Coverage: 0.75, Failed: 1}))
	f.Add(mustJSON(f, PDFResponse{Counts: []int64{1, 0, 42}, Breakdown: bd, FromCache: true}))
	f.Add(mustJSON(f, TopKResponse{Points: pts, Breakdown: bd}))
	f.Add(mustJSON(f, AtomsResponse{Atoms: map[uint64][]byte{5: []byte("blob")}}))
	f.Add(mustJSON(f, InfoResponse{Dataset: "mhd", GridN: 1024, AtomSide: 8, Dx: 0.006, OwnedLo: 0, OwnedHi: 1 << 30}))
	f.Add(mustJSON(f, InfoResponse{Dataset: "mhd", GridN: 1024, AtomSide: 8, Dx: 0.006, Held: []RangeDTO{{Lo: 0, Hi: 1 << 20}, {Lo: 1 << 20, Hi: 1 << 21}}}))
	f.Add(mustJSON(f, ErrorResponse{Error: "threshold too low", Kind: "threshold_too_low", Seen: 5000, Limit: 1000}))
	f.Add(mustJSON(f, ErrorResponse{Error: "over quota", Kind: "over_quota", Seen: 64, Limit: 64, Tenant: "batch"}))
	f.Add(mustJSON(f, ThresholdResponse{Points: pts, Breakdown: bd, QueueWaitMS: 1.5, SharedScan: true, ScansSaved: 12}))
	f.Add(mustJSON(f, ThresholdBatchResponse{Items: []BatchItemDTO{
		{Points: pts, Breakdown: bd, Shared: 2, ScansSaved: 8},
		{Error: "threshold too low", Kind: "threshold_too_low", Seen: 9, Limit: 5},
	}, AtomsScanned: 64}))
	f.Add([]byte(`{"points":[{"z":18446744073709551615,"v":1e39}]}`))
	f.Add([]byte(`{"breakdown":{"totalMs":-1e308}}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var tr ThresholdResponse
		if json.Unmarshal(data, &tr) == nil {
			var pts []query.ResultPoint = fromDTO(tr.Points)
			if len(pts) != len(tr.Points) {
				t.Fatalf("fromDTO dropped points: %d != %d", len(pts), len(tr.Points))
			}
			_ = tr.Breakdown.Breakdown()
			if rt := SpansToDTO(SpansFromDTO(tr.Spans)); len(rt) != len(tr.Spans) {
				t.Fatalf("span round-trip dropped spans: %d != %d", len(rt), len(tr.Spans))
			}
		}
		var br ThresholdBatchResponse
		if json.Unmarshal(data, &br) == nil {
			for _, item := range br.Items {
				if len(fromDTO(item.Points)) != len(item.Points) {
					t.Fatal("fromDTO dropped batch item points")
				}
				_ = breakdownFromDTO(item.Breakdown)
			}
		}
		var pr PDFResponse
		if json.Unmarshal(data, &pr) == nil {
			_ = breakdownFromDTO(pr.Breakdown)
		}
		var kr TopKResponse
		if json.Unmarshal(data, &kr) == nil {
			_ = fromDTO(kr.Points)
			_ = breakdownFromDTO(kr.Breakdown)
		}
		var ar AtomsResponse
		_ = json.Unmarshal(data, &ar)
		var ir InfoResponse
		_ = json.Unmarshal(data, &ir)
		var er ErrorResponse
		_ = json.Unmarshal(data, &er)
	})
}
