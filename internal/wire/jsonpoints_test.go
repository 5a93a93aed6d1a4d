package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"testing/iotest"

	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/node"
	"github.com/turbdb/turbdb/internal/query"
)

// randomValue draws a float32 that exercises encoding/json's formatting:
// arbitrary bit patterns (NaN and ±Inf among them), the values around its
// 1e-6 and 1e21 switches, the golden special values, and plain decimals.
func randomValue(rng *rand.Rand) float32 {
	switch rng.Intn(5) {
	case 0:
		return math.Float32frombits(rng.Uint32())
	case 1:
		edge := []float32{1e-6, 1e21, 1e-7, math.MaxFloat32, math.SmallestNonzeroFloat32}[rng.Intn(5)]
		v := edge
		for i := rng.Intn(4); i > 0; i-- {
			v = math.Nextafter32(v, float32(math.Inf(2*rng.Intn(2)-1)))
		}
		if rng.Intn(2) == 0 {
			v = -v
		}
		return v
	case 2:
		special := goldenSpecialPoints()
		return special[rng.Intn(len(special))].Value
	}
	return rng.Float32()*200 - 100
}

// randomResult is a solo answer of n points with random annotations.
func randomResult(rng *rand.Rand, n int) *result {
	pts := make([]query.ResultPoint, n)
	for i := range pts {
		pts[i] = query.ResultPoint{Code: morton.Code(rng.Uint64() >> rng.Intn(64)), Value: randomValue(rng)}
	}
	it := item{ThresholdResult: node.ThresholdResult{Points: pts, FromCache: rng.Intn(2) == 0, ScansSaved: rng.Intn(3)}}
	if rng.Intn(2) == 0 {
		it.Breakdown = goldenBreakdown
		it.coverage, it.failed, it.queueWaitMS, it.sharedScan = 0.5, 1, 0.25, true
	}
	res := soloResult(it)
	switch rng.Intn(3) {
	case 0:
		res.spans = goldenJSONSpans
	case 1:
		res.trace = &TraceDTO{ID: "points", Spans: goldenJSONSpans}
	}
	return res
}

// fullDTO is the response DTO of path with its points, built as the codec
// built it before it wrote points itself.
func fullDTO(path string, res *result) any {
	it := &res.items[0]
	if path == PathTopK {
		return TopKResponse{
			Points: toDTO(it.Points), Breakdown: breakdownToDTO(it.Breakdown),
			Coverage: it.coverage, Failed: it.failed, Spans: res.spans, Trace: res.trace,
		}
	}
	out := thresholdDTO(res, it)
	out.Points = toDTO(it.Points)
	return out
}

// TestJSONPointsMatchMarshal is the encoder's differential: over 10⁴
// random point lists with random annotations, the body jsonCodec writes is
// json.Marshal of the whole DTO plus a newline — or, where encoding/json
// refuses a value, the same empty body — and the per-point byte counter
// moves by the same amount. A body it wrote decodes to the same points.
func TestJSONPointsMatchMarshal(t *testing.T) {
	log.SetOutput(io.Discard) // every refused list logs its failure
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	rng := rand.New(rand.NewSource(29))
	refused := 0
	for i := 0; i < 10000; i++ {
		path := []string{PathThreshold, PathTopK}[i%2]
		res := randomResult(rng, rng.Intn(24))
		want, err := json.Marshal(fullDTO(path, res))
		if err == nil {
			want = append(want, '\n')
		} else {
			refused++
			want = nil
		}
		before := encJSON.bytes.Value()
		rec := httptest.NewRecorder()
		jsonCodec{}.encode(rec, path, res, nil)
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("case %d %s: body\n got %s\nwant %s", i, path, rec.Body.Bytes(), want)
		}
		// writeJSON counts its newline even when the marshal fails.
		wantMoved := int64(max(len(want), 1))
		if moved := encJSON.bytes.Value() - before; len(res.items[0].Points) > 0 && moved != wantMoved {
			t.Fatalf("case %d: encode bytes counter moved %d, want %d", i, moved, wantMoved)
		}
		if err != nil {
			continue
		}
		back, err := jsonCodec{}.decode(path, http.StatusOK, bytes.NewReader(want))
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		samePoints(t, fmt.Sprintf("case %d", i), back.items[0].Points, res.items[0].Points)
	}
	if refused == 0 || refused > 5000 {
		t.Fatalf("%d of 10000 lists held a NaN or ±Inf: the refusal path is not exercised evenly", refused)
	}
}

// parentDecode is how jsonCodec decoded a threshold or top-k body before it
// parsed points itself: the whole body through encoding/json.
func parentDecode(data []byte) (*result, int64, error) {
	var in ThresholdResponse
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&in); err != nil {
		return nil, 0, err
	}
	res := soloResult(item{
		ThresholdResult: node.ThresholdResult{
			Points: fromDTO(in.Points), FromCache: in.FromCache,
			Breakdown: breakdownFromDTO(in.Breakdown), ScansSaved: in.ScansSaved,
		},
		coverage: in.Coverage, failed: in.Failed, queueWaitMS: in.QueueWaitMS, sharedScan: in.SharedScan,
	})
	res.spans, res.trace = in.Spans, in.Trace
	return res, dec.InputOffset(), nil
}

// FuzzJSONPointsDecode holds jsonCodec's threshold and top-k decode to the
// whole-body encoding/json decode it replaced: for any body, the same
// points by Float32bits, the same other fields, the same bytes counted,
// and an error exactly when — and worded exactly as — that decode errs.
func FuzzJSONPointsDecode(f *testing.F) {
	for _, file := range []string{"threshold.json", "topk.json"} {
		data, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			f.Fatalf("reading golden seed: %v", err)
		}
		for _, body := range bytes.SplitAfter(data, []byte("\n")) {
			f.Add(body)
		}
	}
	pts := []PointDTO{{Code: 0, Value: 1.5}, {Code: 73, Value: -2.25}}
	f.Add(mustJSON(f, ThresholdResponse{Points: pts, Breakdown: BreakdownDTO{PointsExamined: 7}}))
	for _, s := range []string{
		// Whitespace inside the array.
		`{"points":[ {"z":1,"v":2}]}`,
		`{"points":[{"z": 1,"v":2}]}`,
		`{"points":[{"z":1,"v":2} ],"fromCache":true}`,
		`{"points":[{"z":1,"v":2}] ,"fromCache":true}`,
		// Reordered keys.
		`{"points":[{"v":2,"z":1}]}`,
		`{"fromCache":true,"points":[{"z":1,"v":2}]}`,
		// A duplicate "points", a "Points", and spellings encoding/json folds.
		`{"points":[{"z":1,"v":2}],"points":[{"z":3,"v":4}]}`,
		`{"points":[{"z":1,"v":2}],"Points":[{"z":3,"v":4}]}`,
		`{"points":[{"z":1,"v":2}],"POINTS":null}`,
		`{"points":[{"z":1,"v":2}],"pointſ":null}`,
		`{"points":[{"z":1,"v":2}],"\u0070oints":null}`,
		`{"points":[{"z":1,"v":2}],"breakdown":{"points":[]}}`,
		// A "points":null tail.
		`{"points":[{"z":1,"v":2}],"points":null}`,
		// Numbers encoding/json reads, rejects or refuses to store.
		`{"points":[{"z":1,"v":-0}]}`,
		`{"points":[{"z":1,"v":1E+2}]}`,
		`{"points":[{"z":1,"v":1e39}]}`,
		`{"points":[{"z":1,"v":01}]}`,
		`{"points":[{"z":01,"v":1}]}`,
		`{"points":[{"z":18446744073709551616,"v":1}]}`,
		`{"points":[{"z":18446744073709551615,"v":1.5e-45}]}`,
		`{"points":[{"z":1.5,"v":1}]}`,
		`{"points":[{"z":-1,"v":1}]}`,
		`{"points":[{"z":1,"v":"1"}]}`,
		`{"points":[{"z":1,"v":null}]}`,
		`{"points":[{"z":1,"v":1.}]}`,
		`{"points":[{"z":1,"v":.5}]}`,
		// Trailing bytes after the object, and objects cut or left open.
		`{"points":[{"z":1,"v":2}]}garbage`,
		`{"points":[]} {"points":[{"z":1,"v":2}]}`,
		`{"points":[{"z":1,"v":2}],}`,
		`{"points":[{"z":1,"v":2},]}`,
		`{"points":[{"z":1,"v":2}],"fromCache":tru`,
		`{"points":[{"z":1,"v":2}`,
		`{"points":[],"fromCache":1}`,
		`{"points":[]`,
		``,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantN, wantErr := parentDecode(data)
		before := decJSON.bytes.Value()
		got, err := jsonCodec{}.decode(PathThreshold, http.StatusOK, bytes.NewReader(data))
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("decode error %v, parent error %v", err, wantErr)
		}
		if err != nil {
			if msg := "wire: /v1/threshold: decode: " + wantErr.Error(); err.Error() != msg {
				t.Fatalf("decode error %q, want %q", err, msg)
			}
			return
		}
		assertSameResult(t, got, want)
		if moved := decJSON.bytes.Value() - before; len(want.items[0].Points) > 0 && moved != wantN {
			t.Fatalf("decode bytes counter moved %d, parent decoder consumed %d", moved, wantN)
		}
	})
}

// TestJSONPointsReadError cuts a body at every byte with a read error: as
// with the streaming decoder it replaced, the decode fails with that error
// while the value is still open, and succeeds once the value is complete.
func TestJSONPointsReadError(t *testing.T) {
	body := []byte(`{"points":[{"z":1,"v":2}],"fromCache":true}`)
	errCut := errors.New("connection reset")
	for cut := 0; cut <= len(body); cut++ {
		r := io.MultiReader(bytes.NewReader(body[:cut]), iotest.ErrReader(errCut))
		res, err := jsonCodec{}.decode(PathThreshold, http.StatusOK, r)
		switch {
		case cut < len(body) && !errors.Is(err, errCut):
			t.Fatalf("cut at %d: error %v, want the read error", cut, err)
		case cut == len(body) && (err != nil || res.points() != 1 || !res.items[0].FromCache):
			t.Fatalf("whole body, then a read error: %v", err)
		}
	}
}

// TestJSONPointsFastPath pins what the fast paths rest on, since a silent
// fallback to encoding/json would pass every other test: points is the
// first field of both DTOs, and every golden body parses by hand.
func TestJSONPointsFastPath(t *testing.T) {
	for _, dto := range []any{ThresholdResponse{}, TopKResponse{}} {
		data, err := json.Marshal(dto)
		if err != nil || !bytes.HasPrefix(data, []byte(nullPoints)) {
			t.Errorf("%T encodes as %s (%v): points must be its first field", dto, data, err)
		}
	}
	for _, file := range []string{"threshold.json", "topk.json"} {
		data, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		for i, body := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
			var in ThresholdResponse
			if _, _, ok := decodePointsFast(body, &in); !ok {
				t.Errorf("%s body %d: not decoded by the fast path", file, i)
			}
		}
	}
}

// discardResponse is an http.ResponseWriter that drops the body.
type discardResponse http.Header

func (d discardResponse) Header() http.Header       { return http.Header(d) }
func (discardResponse) Write(b []byte) (int, error) { return len(b), nil }
func (discardResponse) WriteHeader(int)             {}

// BenchmarkJSONCodec times jsonCodec on a solo threshold answer, both
// directions, in ns per point and allocations per response:
//
//	go test -run=NONE -bench BenchmarkJSONCodec -benchmem ./internal/wire
//
// 1 311 points is about an average session_mix_json answer; 26 214 is a
// large one.
func BenchmarkJSONCodec(b *testing.B) {
	for _, n := range []int{1311, 26214} {
		res := soloResult(item{ThresholdResult: node.ThresholdResult{Points: benchResult()[:n], Breakdown: goldenBreakdown}})
		rec := httptest.NewRecorder()
		jsonCodec{}.encode(rec, PathThreshold, res, nil)
		body := rec.Body.Bytes()
		b.Run(fmt.Sprintf("encode/points=%d", n), func(b *testing.B) {
			w := discardResponse{}
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				jsonCodec{}.encode(w, PathThreshold, res, nil)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/point")
		})
		b.Run(fmt.Sprintf("decode/points=%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, err := jsonCodec{}.decode(PathThreshold, http.StatusOK, bytes.NewReader(body))
				if err != nil || got.points() != n {
					b.Fatalf("decode: %v", err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/point")
		})
	}
}
