package binproto

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
)

// rawStream builds a stream by hand: magic plus each (type, payload)
// frame, bypassing Writer so tests can craft malformed input.
func rawStream(frames ...[]byte) []byte {
	out := append([]byte(nil), magic[:]...)
	for _, f := range frames {
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(f)))
		out = append(out, hdr[:]...)
		out = append(out, f...)
	}
	return out
}

func rawFrame(typ byte, payload []byte) []byte {
	return append([]byte{typ}, payload...)
}

// readAll decodes frames until io.EOF, failing the test on any decode
// error.
func readAll(t *testing.T, stream []byte) []any {
	t.Helper()
	r := NewReader(bytes.NewReader(stream))
	var frames []any
	for {
		f, err := r.Next()
		if err == io.EOF {
			return frames
		}
		if err != nil {
			t.Fatalf("Next: %v (after %d frames)", err, len(frames))
		}
		frames = append(frames, f)
	}
}

func TestPointsRoundTripAcrossChunks(t *testing.T) {
	const n = 2*MaxChunk + 137 // three chunks, last one partial
	codes := make([]uint64, n)
	vals := make([]float32, n)
	c := uint64(12345)
	for i := range codes {
		c += uint64(i%17) + 1 // strictly increasing, varied deltas
		codes[i] = c
		vals[i] = float32(i)*0.25 - 1000
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Points(codes, vals); err != nil {
		t.Fatalf("Points: %v", err)
	}
	if err := w.End(End{Items: 0}); err != nil {
		t.Fatalf("End: %v", err)
	}
	if got, want := w.Chunks(), 3; got != want {
		t.Fatalf("Chunks() = %d, want %d", got, want)
	}
	if got, want := w.Frames(), 4; got != want {
		t.Fatalf("Frames() = %d, want %d", got, want)
	}
	if got, want := w.BytesWritten(), buf.Len(); got != want {
		t.Fatalf("BytesWritten() = %d, buffer has %d", got, want)
	}

	frames := readAll(t, buf.Bytes())
	if len(frames) != 4 {
		t.Fatalf("decoded %d frames, want 4", len(frames))
	}
	var gotCodes []uint64
	var gotVals []float32
	for _, f := range frames[:3] {
		p, ok := f.(*Points)
		if !ok {
			t.Fatalf("frame is %T, want *Points", f)
		}
		if len(p.Codes) != len(p.Values) {
			t.Fatalf("chunk planes disagree: %d codes, %d values", len(p.Codes), len(p.Values))
		}
		gotCodes = append(gotCodes, p.Codes...)
		gotVals = append(gotVals, p.Values...)
	}
	if _, ok := frames[3].(*End); !ok {
		t.Fatalf("last frame is %T, want *End", frames[3])
	}
	if !reflect.DeepEqual(gotCodes, codes) {
		t.Fatal("codes did not round-trip")
	}
	for i := range vals {
		if math.Float32bits(gotVals[i]) != math.Float32bits(vals[i]) {
			t.Fatalf("value[%d] = %x, want %x", i, math.Float32bits(gotVals[i]), math.Float32bits(vals[i]))
		}
	}
}

func TestPointsUnsortedAndExtremeValues(t *testing.T) {
	// Top-k results are value-ordered, not code-ordered: deltas go
	// negative and wrap. Values include NaN, infinities and denormals —
	// all must survive bit-exactly.
	codes := []uint64{1 << 62, 3, math.MaxUint64, 0, 42}
	vals := []float32{
		float32(math.NaN()),
		float32(math.Inf(1)),
		float32(math.Inf(-1)),
		math.SmallestNonzeroFloat32,
		-math.MaxFloat32,
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Points(codes, vals); err != nil {
		t.Fatalf("Points: %v", err)
	}
	frames := readAll(t, buf.Bytes())
	p := frames[0].(*Points)
	if !reflect.DeepEqual(p.Codes, codes) {
		t.Fatalf("codes = %v, want %v", p.Codes, codes)
	}
	for i := range vals {
		if math.Float32bits(p.Values[i]) != math.Float32bits(vals[i]) {
			t.Fatalf("value[%d] bits = %x, want %x", i, math.Float32bits(p.Values[i]), math.Float32bits(vals[i]))
		}
	}
}

func TestEmptyPointsEmitNoFrame(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Points(nil, nil); err != nil {
		t.Fatalf("Points(nil): %v", err)
	}
	if w.Frames() != 0 || buf.Len() != 0 {
		t.Fatalf("empty Points wrote %d frames (%d bytes), want none", w.Frames(), buf.Len())
	}
}

func TestStatsRoundTrip(t *testing.T) {
	in := Stats{
		FromCache: true, SharedScan: true,
		CacheLookupMS: 0.125, IOMS: 1.5, ComputeMS: 2.25, CacheUpdateMS: 0.0625, TotalMS: 3.9375,
		AtomsRead: 64, HaloAtoms: 12, PointsExamined: 1 << 20, AtomsSkipped: 7,
		Coverage: 0.875, Failed: 2, QueueWaitMS: 0.5, ScansSaved: 3, Shared: 4,
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Stats(in); err != nil {
		t.Fatalf("Stats: %v", err)
	}
	frames := readAll(t, buf.Bytes())
	got := frames[0].(*Stats)
	if *got != in {
		t.Fatalf("stats round-trip: got %+v, want %+v", *got, in)
	}
}

func TestCountsRoundTripAcrossChunks(t *testing.T) {
	counts := make([]int64, MaxChunk+5)
	for i := range counts {
		counts[i] = int64(i*31) - 100 // includes negatives: codec is total
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Counts(counts); err != nil {
		t.Fatalf("Counts: %v", err)
	}
	if w.Chunks() != 2 {
		t.Fatalf("Chunks() = %d, want 2", w.Chunks())
	}
	var got []int64
	for _, f := range readAll(t, buf.Bytes()) {
		got = append(got, f.(*Counts).Counts...)
	}
	if !reflect.DeepEqual(got, counts) {
		t.Fatal("counts did not round-trip")
	}
}

func TestErrorFrameRoundTrip(t *testing.T) {
	in := ErrorFrame{
		Class: ClassOverQuota, Kind: "over_quota",
		Msg: "tenant über limit", Tenant: "alice", Seen: 9, Limit: 4,
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Error(in); err != nil {
		t.Fatalf("Error: %v", err)
	}
	got := readAll(t, buf.Bytes())[0].(*ErrorFrame)
	if *got != in {
		t.Fatalf("error round-trip: got %+v, want %+v", *got, in)
	}
}

func TestWriterRejectsInvalid(t *testing.T) {
	w := NewWriter(io.Discard)
	if err := w.Points([]uint64{1}, nil); err == nil {
		t.Fatal("Points with mismatched planes: want error")
	}
	if err := w.Error(ErrorFrame{Class: 9}); err == nil {
		t.Fatal("Error with unknown class: want error")
	}
	if err := w.Atoms([]uint64{1}, nil); err == nil {
		t.Fatal("Atoms with mismatched planes: want error")
	}
	if err := w.Spans("", []Span{{ID: 1, Name: strings.Repeat("n", MaxName+1)}}); err == nil {
		t.Fatal("Spans with an over-long name: want error")
	}
	if err := w.Atoms([]uint64{1}, [][]byte{make([]byte, MaxFrameBytes)}); err == nil {
		t.Fatal("Atoms with a blob no frame can hold: want error")
	}
}

// TestSpansAndAtomsRoundTripAcrossChunks drives both new frame types past
// their per-frame bounds: spans split by count, atoms by count and by blob
// bytes, an empty blob and one larger than the frame budget included.
func TestSpansAndAtomsRoundTripAcrossChunks(t *testing.T) {
	spans := make([]Span, MaxChunk+3)
	for i := range spans {
		spans[i] = Span{ID: uint64(i + 1), Parent: uint64(i), Name: "s", StartUS: int64(i) - 7, DurUS: int64(i)}
	}
	codes := make([]uint64, MaxChunk+2)
	blobs := make([][]byte, len(codes))
	for i := range codes {
		codes[i] = uint64(len(codes) - i) // unsorted on purpose
		blobs[i] = []byte{byte(i), byte(i >> 8)}
	}
	blobs[1] = nil
	blobs[2] = bytes.Repeat([]byte{0xab}, atomsFrameBytes+1)
	blobs[3] = bytes.Repeat([]byte{0xcd}, atomsFrameBytes/2)
	blobs[4] = bytes.Repeat([]byte{0xef}, atomsFrameBytes/2+1)

	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Atoms(codes, blobs); err != nil {
		t.Fatalf("Atoms: %v", err)
	}
	atomFrames := w.Frames()
	if atomFrames < 4 {
		t.Fatalf("atoms went out in %d frames, want the count and byte bounds to split them", atomFrames)
	}
	if err := w.Spans("tid", spans); err != nil {
		t.Fatalf("Spans: %v", err)
	}
	if got := w.Frames() - atomFrames; got != 2 {
		t.Fatalf("spans went out in %d frames, want 2", got)
	}

	var gotCodes []uint64
	var gotBlobs [][]byte
	var gotSpans []Span
	for _, f := range readAll(t, buf.Bytes()) {
		switch fr := f.(type) {
		case *Atoms:
			gotCodes = append(gotCodes, fr.Codes...)
			gotBlobs = append(gotBlobs, fr.Blobs...)
		case *Spans:
			if fr.TraceID != "tid" {
				t.Fatalf("spans chunk carries trace ID %q", fr.TraceID)
			}
			gotSpans = append(gotSpans, fr.Spans...)
		}
	}
	if !reflect.DeepEqual(gotCodes, codes) || !reflect.DeepEqual(gotSpans, spans) {
		t.Fatal("codes or spans did not round-trip")
	}
	for i := range blobs {
		if !bytes.Equal(gotBlobs[i], blobs[i]) {
			t.Fatalf("blob %d did not round-trip (%d bytes, want %d)", i, len(gotBlobs[i]), len(blobs[i]))
		}
	}
}

func TestReaderRejectsMalformed(t *testing.T) {
	valid := func() []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.End(End{Items: 1}); err != nil {
			t.Fatalf("End: %v", err)
		}
		return buf.Bytes()
	}()

	cases := []struct {
		name   string
		stream []byte
		substr string
	}{
		{"empty", nil, "magic"},
		{"bad magic", []byte("TBF\x02\x01\x00\x00\x00\x05"), "bad magic"},
		{"zero length", rawStream([]byte{}), "out of range"},
		{"oversized length", func() []byte {
			s := append([]byte(nil), magic[:]...)
			var hdr [4]byte
			binary.LittleEndian.PutUint32(hdr[:], MaxFrameBytes+1)
			return append(s, hdr[:]...)
		}(), "out of range"},
		{"truncated payload", func() []byte {
			s := append([]byte(nil), magic[:]...)
			var hdr [4]byte
			binary.LittleEndian.PutUint32(hdr[:], 100)
			return append(append(s, hdr[:]...), TypeEnd, 0x00)
		}(), "truncated"},
		{"truncated mid-header", valid[:len(valid)-3], ""},
		{"unknown type", rawStream(rawFrame(0x7f, nil)), "unknown frame type"},
		{"trailing payload bytes", rawStream(rawFrame(TypeEnd, []byte{0, 0, 0xff})), "trailing"},
		{"unknown stats flags", rawStream(rawFrame(TypeStats, []byte{0x80})), "flag bits"},
		{"points over MaxChunk", rawStream(rawFrame(TypePoints, binary.AppendUvarint(nil, MaxChunk+1))), "max"},
		{"points count exceeds payload", rawStream(rawFrame(TypePoints, binary.AppendUvarint(nil, 100))), "payload bytes"},
		{"counts over MaxChunk", rawStream(rawFrame(TypeCounts, binary.AppendUvarint(nil, MaxChunk+1))), "max"},
		{"string overruns payload", rawStream(rawFrame(TypeError, []byte{0x00, 0x20, 'x'})), "exceeds remaining"},
		{"unknown error class", rawStream(rawFrame(TypeError, []byte{0x03})), "class"},
		// one atom, code 5, blob declared 100 bytes long with 1 present
		{"atom length past the payload", rawStream(rawFrame(TypeAtoms, []byte{0x01, 0x05, 100, 'x'})), "exceeds remaining"},
		{"atoms over MaxChunk", rawStream(rawFrame(TypeAtoms, binary.AppendUvarint(nil, MaxChunk+1))), "max"},
		{"atom count exceeds payload", rawStream(rawFrame(TypeAtoms, []byte{100, 0x05})), "payload bytes"},
		// no trace ID, one span, IDs 1 and 0, then a name of MaxName+1 bytes
		{"span name over MaxName", rawStream(rawFrame(TypeSpans, append(append([]byte{0x00, 0x01, 0x01, 0x00}, binary.AppendUvarint(nil, MaxName+1)...), make([]byte, MaxName+3)...))), "exceeds MaxName"},
		{"trace ID over MaxName", rawStream(rawFrame(TypeSpans, append(binary.AppendUvarint(nil, MaxName+1), make([]byte, MaxName+2)...))), "exceeds MaxName"},
		{"span count exceeds payload", rawStream(rawFrame(TypeSpans, []byte{0x00, 100, 0x01})), "payload bytes"},
		{"spans after End", append(append([]byte(nil), valid...), rawStream(rawFrame(TypeSpans, []byte{0x00, 0x00}))[len(magic):]...), "after the end frame"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(bytes.NewReader(tc.stream))
			for {
				_, err := r.Next()
				if err == io.EOF {
					t.Fatal("stream decoded cleanly, want error")
				}
				if err != nil {
					var fe *FormatError
					if !errorsAs(err, &fe) {
						t.Fatalf("error %v is %T, want *FormatError", err, err)
					}
					if fe.Transient() {
						t.Fatal("format errors must be permanent")
					}
					if tc.substr != "" && !strings.Contains(err.Error(), tc.substr) {
						t.Fatalf("error %q does not mention %q", err, tc.substr)
					}
					return
				}
			}
		})
	}
}

// errorsAs is a local shim so the test file doesn't import errors just
// for one assertion.
func errorsAs(err error, target **FormatError) bool {
	fe, ok := err.(*FormatError)
	if ok {
		*target = fe
	}
	return ok
}

func TestSoloStreamGrammar(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Points([]uint64{1, 2, 3}, []float32{1, 2, 3}); err != nil {
		t.Fatalf("Points: %v", err)
	}
	if err := w.Stats(Stats{Coverage: 1, TotalMS: 0.5}); err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if err := w.End(End{Items: 1}); err != nil {
		t.Fatalf("End: %v", err)
	}
	frames := readAll(t, buf.Bytes())
	want := []string{"*binproto.Points", "*binproto.Stats", "*binproto.End"}
	if len(frames) != len(want) {
		t.Fatalf("decoded %d frames, want %d", len(frames), len(want))
	}
	for i, f := range frames {
		if got := reflect.TypeOf(f).String(); got != want[i] {
			t.Fatalf("frame %d is %s, want %s", i, got, want[i])
		}
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	for range frames {
		if _, err := r.Next(); err != nil {
			t.Fatalf("Next: %v", err)
		}
	}
	if got, want := r.BytesRead(), buf.Len(); got != want {
		t.Fatalf("BytesRead() = %d, want %d", got, want)
	}
}
