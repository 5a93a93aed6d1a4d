package wire

// Encode/decode cost of the two response encodings over an identical
// threshold result, reported as ns/point and bytes/point so the binary
// protocol's claimed wins (BENCH_10.json) are reproducible:
//
//	go test -run=NONE -bench BenchmarkWire ./internal/wire
//
// The frame path runs the exact server/client code (ChunkPoints → frame
// writer, frameCodec.decode → result envelope); the JSON path runs the same
// encoding/json round trip the handlers use. Codes are sorted with small
// deltas, the shape a node's scan emits, which is what the delta-varint
// plane is tuned for.

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"testing"

	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/node"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/wire/binproto"
)

const benchPoints = 1 << 16

// benchResult builds a deterministic sorted result set: codes advance by
// small positive deltas (dense scan output), values are arbitrary floats.
func benchResult() []query.ResultPoint {
	rng := rand.New(rand.NewSource(10))
	pts := make([]query.ResultPoint, benchPoints)
	code := uint64(0)
	for i := range pts {
		code += 1 + uint64(rng.Intn(64))
		pts[i] = query.ResultPoint{Code: morton.Code(code), Value: rng.Float32()*100 - 50}
	}
	return pts
}

func encodeJSONResponse(w io.Writer, pts []query.ResultPoint) error {
	return json.NewEncoder(w).Encode(ThresholdResponse{Points: toDTO(pts), Coverage: 1})
}

func encodeFrameResponse(w io.Writer, pts []query.ResultPoint) error {
	bw := binproto.NewWriter(w)
	if err := node.ChunkPoints(pts, binproto.MaxChunk, bw.Points); err != nil {
		return err
	}
	if err := bw.Stats(binproto.Stats{Coverage: 1}); err != nil {
		return err
	}
	return bw.End(binproto.End{Items: 1})
}

func BenchmarkWireEncode(b *testing.B) {
	pts := benchResult()
	for _, bc := range []struct {
		name   string
		encode func(io.Writer, []query.ResultPoint) error
	}{
		{"proto=json", encodeJSONResponse},
		{"proto=frame", encodeFrameResponse},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var size bytes.Buffer
			if err := bc.encode(&size, pts); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(size.Len()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bc.encode(io.Discard, pts); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchPoints, "ns/point")
			b.ReportMetric(float64(size.Len())/benchPoints, "bytes/point")
		})
	}
}

func BenchmarkWireDecode(b *testing.B) {
	pts := benchResult()
	var jsonBody, frameBody bytes.Buffer
	if err := encodeJSONResponse(&jsonBody, pts); err != nil {
		b.Fatal(err)
	}
	if err := encodeFrameResponse(&frameBody, pts); err != nil {
		b.Fatal(err)
	}

	decodeJSON := func(data []byte) (int, error) {
		var resp ThresholdResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			return 0, err
		}
		return len(resp.Points), nil
	}
	decodeFrame := func(data []byte) (int, error) {
		res, err := frameCodec{}.decode(PathThreshold, http.StatusOK, bytes.NewReader(data))
		if err != nil {
			return 0, err
		}
		return res.points(), nil
	}

	for _, bc := range []struct {
		name   string
		data   []byte
		decode func([]byte) (int, error)
	}{
		{"proto=json", jsonBody.Bytes(), decodeJSON},
		{"proto=frame", frameBody.Bytes(), decodeFrame},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n, err := bc.decode(bc.data)
				if err != nil {
					b.Fatal(err)
				}
				if n != benchPoints {
					b.Fatalf("decoded %d points, want %d", n, benchPoints)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchPoints, "ns/point")
			b.ReportMetric(float64(len(bc.data))/benchPoints, "bytes/point")
		})
	}
}
