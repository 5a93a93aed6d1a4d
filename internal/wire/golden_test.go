package wire

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/turbdb/turbdb/internal/node"
	"github.com/turbdb/turbdb/internal/query"
)

// goldenJSONCases pins the frozen v1 JSON bodies of the two answers that
// carry points, byte for byte, the JSON analogue of binproto's
// TestGoldenFrames. Each fixture holds one body per case, in order, exactly
// as jsonCodec.encode writes it (the body and its trailing newline).
// TestGoldenJSON asserts both directions: encoding the pinned results
// reproduces the committed bytes, and decoding each committed body yields
// exactly the pinned result (values compared by Float32bits).
//
// The bodies are the protocol, so a drift is a wire break. Regenerate only
// after an intentional one:
//
//	TURBDB_UPDATE_GOLDEN=1 go test ./internal/wire -run TestGoldenJSON
var goldenJSONCases = []struct {
	file    string
	path    string
	results []*result
}{
	{
		file: "threshold.json",
		path: PathThreshold,
		results: []*result{
			// A mediator answer: every annotation set, the special values,
			// both extreme codes, and a requested trace.
			{
				items: []item{{
					ThresholdResult: node.ThresholdResult{
						Points: goldenSpecialPoints(), FromCache: true,
						Breakdown: goldenBreakdown, ScansSaved: 3,
					},
					coverage: 0.75, failed: 1, queueWaitMS: 1.5, sharedScan: true,
				}},
				trace: &TraceDTO{ID: "a1b2c3d4e5f60718", Spans: goldenJSONSpans},
			},
			// A node answer: sorted codes and the spans of a joined trace.
			{
				items: []item{{ThresholdResult: node.ThresholdResult{
					Points:    []query.ResultPoint{{Code: 7, Value: 61.25}, {Code: 9, Value: 70.5}, {Code: 1 << 40, Value: 88.125}},
					Breakdown: goldenBreakdown,
				}}},
				spans: goldenJSONSpans,
			},
			// An empty answer with nothing else set.
			{items: []item{{}}},
		},
	},
	{
		file: "topk.json",
		path: PathTopK,
		results: []*result{
			{
				items: []item{{
					ThresholdResult: node.ThresholdResult{Points: goldenSpecialPoints(), Breakdown: goldenBreakdown},
					coverage:        0.5, failed: 2,
				}},
				spans: goldenJSONSpans,
				trace: &TraceDTO{ID: "0f1e2d3c4b5a6978", Spans: goldenJSONSpans[:1]},
			},
			{items: []item{{}}},
		},
	},
}

// goldenBreakdown's durations are binary fractions of a millisecond, so
// they survive the float64-millisecond wire form exactly.
var goldenBreakdown = node.Breakdown{
	CacheLookup: 125 * time.Microsecond, IO: 7500 * time.Microsecond, Compute: 2250 * time.Microsecond,
	CacheUpdate: 62500 * time.Nanosecond, Total: 9937500 * time.Nanosecond,
	AtomsRead: 4096, HaloAtoms: 96, PointsExamined: 1 << 21, AtomsSkipped: 33,
}

var goldenJSONSpans = []SpanDTO{
	{ID: 1, Name: "threshold", StartUS: 0, DurUS: 1500},
	{ID: 2, Parent: 1, Name: "scan_io", StartUS: 250, DurUS: 1000},
	{ID: 7, Parent: 2, Name: "rpc:/v1/atoms", StartUS: -3, DurUS: 1 << 33},
}

// goldenSpecialPoints covers every branch of encoding/json's float32
// formatting: ±0, the smallest denormal, either side of the 1e-6 and 1e21
// switches between fixed and exponent form (and an exponent it shortens
// from e-07 to e-7), ±MaxFloat32, plus codes 0 and 2⁶⁴−1.
func goldenSpecialPoints() []query.ResultPoint {
	vals := []float32{
		0, math.Float32frombits(1 << 31),
		math.SmallestNonzeroFloat32,
		math.Nextafter32(1e-6, 0), 1e-6, -math.Nextafter32(1e-6, 1), 1e-7,
		math.Nextafter32(1e21, 0), 1e21, -math.Nextafter32(1e21, math.MaxFloat32),
		math.MaxFloat32, -math.MaxFloat32,
		1.5, -2.25, 123456.79,
	}
	pts := make([]query.ResultPoint, len(vals))
	for i, v := range vals {
		pts[i] = query.ResultPoint{Code: 1 << (4 * i), Value: v}
	}
	pts[0].Code, pts[len(pts)-1].Code = 0, math.MaxUint64
	return pts
}

func TestGoldenJSON(t *testing.T) {
	update := os.Getenv("TURBDB_UPDATE_GOLDEN") != ""
	for _, tc := range goldenJSONCases {
		t.Run(tc.file, func(t *testing.T) {
			var got bytes.Buffer
			for _, res := range tc.results {
				rec := httptest.NewRecorder()
				jsonCodec{}.encode(rec, tc.path, res, nil)
				if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
					t.Fatalf("encode: HTTP %d, Content-Type %q", rec.Code, rec.Header().Get("Content-Type"))
				}
				got.Write(rec.Body.Bytes())
			}
			path := filepath.Join("testdata", tc.file)
			if update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatalf("writing fixture: %v", err)
				}
				t.Logf("updated %s (%d bytes)", path, got.Len())
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading fixture (regenerate with TURBDB_UPDATE_GOLDEN=1): %v", err)
			}
			// Direction 1: encoding the pinned results reproduces the
			// committed bytes exactly.
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("encoded bytes drifted from %s:\n got %s\nwant %s", path, got.Bytes(), want)
			}
			// Direction 2: each committed body decodes to exactly its
			// pinned result.
			bodies := bytes.SplitAfter(want, []byte("\n"))
			if last := len(bodies) - 1; len(bodies[last]) == 0 {
				bodies = bodies[:last]
			}
			if len(bodies) != len(tc.results) {
				t.Fatalf("%s holds %d bodies, want %d", path, len(bodies), len(tc.results))
			}
			for i, body := range bodies {
				res, err := jsonCodec{}.decode(tc.path, http.StatusOK, bytes.NewReader(body))
				if err != nil {
					t.Fatalf("body %d: decode: %v", i, err)
				}
				assertSameResult(t, res, tc.results[i])
			}
		})
	}
}

// assertSameResult compares a decoded solo answer with a pinned one: points
// by code and Float32bits, everything else by value.
func assertSameResult(t *testing.T, got, want *result) {
	t.Helper()
	if len(got.items) != 1 || len(want.items) != 1 {
		t.Fatalf("decoded %d items, pinned %d: want 1 each", len(got.items), len(want.items))
	}
	samePoints(t, "points", got.items[0].Points, want.items[0].Points)
	g, w := *got, *want
	g.items = []item{got.items[0]}
	w.items = []item{want.items[0]}
	g.items[0].Points, w.items[0].Points = nil, nil
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("decoded %+v\nwant %+v", g, w)
	}
}
