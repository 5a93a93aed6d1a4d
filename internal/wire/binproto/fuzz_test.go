package binproto

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzFrameDecode feeds arbitrary bytes to the Reader: decoding must
// never panic, never allocate past the frame caps, and any frame that
// decodes successfully must re-encode and decode back to the same
// struct (decode→encode→decode fixpoint). Seeds are the golden fixtures
// (spans and atoms frames among them) plus targeted corruptions of the
// length prefix.
func FuzzFrameDecode(f *testing.F) {
	for _, tc := range goldenCases {
		data, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			f.Fatalf("reading golden seed (regenerate with TURBDB_UPDATE_GOLDEN=1): %v", err)
		}
		f.Add(data)
		// Truncated and oversized length prefixes.
		f.Add(data[:len(data)-1])
		if len(data) > 8 {
			huge := append([]byte(nil), data...)
			binary.LittleEndian.PutUint32(huge[4:8], MaxFrameBytes+1)
			f.Add(huge)
			big := append([]byte(nil), data...)
			binary.LittleEndian.PutUint32(big[4:8], MaxFrameBytes-1)
			f.Add(big)
		}
	}
	// A multi-frame stream seed: points + stats + end.
	var multi bytes.Buffer
	w := NewWriter(&multi)
	if err := w.Points([]uint64{5, 6, 1000}, []float32{1, -2, 3}); err != nil {
		f.Fatal(err)
	}
	if err := w.Stats(Stats{Coverage: 1, TotalMS: 0.25}); err != nil {
		f.Fatal(err)
	}
	if err := w.End(End{Items: 1}); err != nil {
		f.Fatal(err)
	}
	f.Add(multi.Bytes())
	// A traced halo answer: atoms + stats + grafted spans + end.
	var halo bytes.Buffer
	w = NewWriter(&halo)
	if err := w.Atoms(goldenAtomCodes, goldenAtomBlobs); err != nil {
		f.Fatal(err)
	}
	if err := w.Stats(Stats{}); err != nil {
		f.Fatal(err)
	}
	if err := w.Spans("", goldenSpans); err != nil {
		f.Fatal(err)
	}
	if err := w.End(End{Items: 1}); err != nil {
		f.Fatal(err)
	}
	f.Add(halo.Bytes())
	f.Add([]byte("TBF\x01"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		for i := 0; i < 1<<16; i++ {
			frame, err := r.Next()
			if err != nil {
				if err != io.EOF {
					if _, ok := err.(*FormatError); !ok {
						t.Fatalf("decode error is %T (%v), want *FormatError or io.EOF", err, err)
					}
				}
				return
			}
			reencodeAndCompare(t, frame)
		}
	})
}

// reencodeAndCompare checks the decode→encode→decode fixpoint for one
// frame.
func reencodeAndCompare(t *testing.T, frame any) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var err error
	switch fr := frame.(type) {
	case *Points:
		err = w.Points(fr.Codes, fr.Values)
		if len(fr.Codes) == 0 {
			// A hand-crafted zero-point frame re-encodes to no frame at all;
			// nothing further to compare.
			return
		}
	case *Stats:
		err = w.Stats(*fr)
	case *Counts:
		err = w.Counts(fr.Counts)
		if len(fr.Counts) == 0 {
			return
		}
	case *ErrorFrame:
		err = w.Error(*fr)
	case *End:
		err = w.End(*fr)
	case *Spans:
		err = w.Spans(fr.TraceID, fr.Spans)
		if len(fr.Spans) == 0 {
			return // like zero points, zero spans re-encode to no frame
		}
	case *Atoms:
		err = w.Atoms(fr.Codes, fr.Blobs)
		if len(fr.Codes) == 0 {
			return
		}
	default:
		t.Fatalf("unknown frame type %T", frame)
	}
	if err != nil {
		t.Fatalf("re-encoding decoded frame %#v: %v", frame, err)
	}
	again, err := NewReader(bytes.NewReader(buf.Bytes())).Next()
	if err != nil {
		t.Fatalf("re-decoding re-encoded frame: %v", err)
	}
	if !framesEqual(frame, again) {
		t.Fatalf("decode fixpoint violated:\n first %#v\nsecond %#v", frame, again)
	}
}

// framesEqual compares frames with float32/float64 fields by bit
// pattern so NaNs don't break the fixpoint check.
func framesEqual(a, b any) bool {
	ap, aok := a.(*Points)
	bp, bok := b.(*Points)
	if aok && bok {
		if !reflect.DeepEqual(ap.Codes, bp.Codes) || len(ap.Values) != len(bp.Values) {
			return false
		}
		for i := range ap.Values {
			if math.Float32bits(ap.Values[i]) != math.Float32bits(bp.Values[i]) {
				return false
			}
		}
		return true
	}
	as, aok := a.(*Stats)
	bs, bok := b.(*Stats)
	if aok && bok {
		return statsBits(*as) == statsBits(*bs)
	}
	return reflect.DeepEqual(a, b)
}

// statsBits maps a Stats to a comparable form with float64 fields
// replaced by their bit patterns.
func statsBits(s Stats) [16]uint64 {
	b := func(f float64) uint64 { return math.Float64bits(f) }
	var flags uint64
	if s.FromCache {
		flags |= 1
	}
	if s.SharedScan {
		flags |= 2
	}
	return [16]uint64{
		flags,
		b(s.CacheLookupMS), b(s.IOMS), b(s.ComputeMS), b(s.CacheUpdateMS), b(s.TotalMS),
		uint64(s.AtomsRead), uint64(s.HaloAtoms), uint64(s.PointsExamined), uint64(s.AtomsSkipped),
		b(s.Coverage), uint64(s.Failed), b(s.QueueWaitMS), uint64(s.ScansSaved), uint64(s.Shared),
	}
}

// FuzzPointsRoundTrip drives the points codec with arbitrary code/value
// planes derived from raw bytes: encode→decode→encode must be
// byte-identical (idempotent), the decoded planes must match the input
// bit-for-bit, and every truncated prefix of a valid encoding must fail
// cleanly rather than panic.
func FuzzPointsRoundTrip(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0}, []byte{0, 0, 0x80, 0x3f})
	// Sorted Morton-ish run.
	var codes, vals []byte
	for i := 0; i < 64; i++ {
		codes = binary.LittleEndian.AppendUint64(codes, uint64(i*i*37))
		vals = binary.LittleEndian.AppendUint32(vals, math.Float32bits(float32(i)-31.5))
	}
	f.Add(codes, vals)
	// Extremes: wrapping deltas and NaN payloads.
	f.Add(
		binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, math.MaxUint64), 0),
		binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, 0x7fc00001), 0xff800000),
	)

	f.Fuzz(func(t *testing.T, codeBytes, valBytes []byte) {
		n := len(codeBytes) / 8
		if m := len(valBytes) / 4; m < n {
			n = m
		}
		if n > 3*MaxChunk {
			n = 3 * MaxChunk // bound fuzz cost; chunking is still exercised
		}
		codes := make([]uint64, n)
		values := make([]float32, n)
		for i := 0; i < n; i++ {
			codes[i] = binary.LittleEndian.Uint64(codeBytes[8*i:])
			values[i] = math.Float32frombits(binary.LittleEndian.Uint32(valBytes[4*i:]))
		}

		var first bytes.Buffer
		w := NewWriter(&first)
		if err := w.Points(codes, values); err != nil {
			t.Fatalf("encode: %v", err)
		}
		if err := w.End(End{}); err != nil {
			t.Fatalf("End: %v", err)
		}

		var gotCodes []uint64
		var gotVals []float32
		r := NewReader(bytes.NewReader(first.Bytes()))
		for {
			frame, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if p, ok := frame.(*Points); ok {
				gotCodes = append(gotCodes, p.Codes...)
				gotVals = append(gotVals, p.Values...)
			}
		}
		if len(gotCodes) != n || len(gotVals) != n {
			t.Fatalf("decoded %d codes / %d values, want %d", len(gotCodes), len(gotVals), n)
		}
		for i := 0; i < n; i++ {
			if gotCodes[i] != codes[i] {
				t.Fatalf("code[%d] = %d, want %d", i, gotCodes[i], codes[i])
			}
			if math.Float32bits(gotVals[i]) != math.Float32bits(values[i]) {
				t.Fatalf("value[%d] bits = %x, want %x", i, math.Float32bits(gotVals[i]), math.Float32bits(values[i]))
			}
		}

		// Encode→decode→encode idempotence: re-encoding the decoded planes
		// yields the identical byte stream.
		var second bytes.Buffer
		w2 := NewWriter(&second)
		if err := w2.Points(gotCodes, gotVals); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if err := w2.End(End{}); err != nil {
			t.Fatalf("re-encode End: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encoded stream differs:\n first %x\nsecond %x", first.Bytes(), second.Bytes())
		}

		// Every truncation of a valid stream fails cleanly, never panics.
		// Probe a spread of cut points (all of them for small streams).
		stride := len(first.Bytes())/32 + 1
		for cut := 0; cut < len(first.Bytes()); cut += stride {
			r := NewReader(bytes.NewReader(first.Bytes()[:cut]))
			for {
				_, err := r.Next()
				if err != nil {
					break
				}
			}
		}
	})
}
