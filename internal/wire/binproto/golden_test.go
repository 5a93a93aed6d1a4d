package binproto

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// goldenCases pins the v1 frame layout byte-for-byte, one fixture per
// frame type, the binary analogue of the //turbdb:wire-baseline
// directives that freeze the JSON DTOs. Each fixture is a minimal valid
// stream (magic + one frame); TestGoldenFrames asserts both directions —
// the committed bytes decode to exactly these structs, and re-encoding
// the structs reproduces exactly the committed bytes — so any layout
// drift fails loudly.
//
// To regenerate after an INTENTIONAL format change (which must bump
// Version and be called out in the PR per CONTRIBUTING.md):
//
//	TURBDB_UPDATE_GOLDEN=1 go test ./internal/wire/binproto -run TestGoldenFrames
var goldenCases = []struct {
	file  string
	frame any
	write func(w *Writer) error
}{
	{
		file: "points.frame",
		// Sorted run, a backwards jump (negative delta, as top-k emits),
		// and a 40-bit jump; values cover NaN, ±extremes and a denormal.
		frame: &Points{
			Codes: []uint64{7, 9, 1 << 40, 42, 1<<40 + 3},
			Values: []float32{
				1.5,
				float32(math.NaN()),
				-math.MaxFloat32,
				math.SmallestNonzeroFloat32,
				-2.25,
			},
		},
		write: func(w *Writer) error {
			return w.Points(
				[]uint64{7, 9, 1 << 40, 42, 1<<40 + 3},
				[]float32{1.5, float32(math.NaN()), -math.MaxFloat32, math.SmallestNonzeroFloat32, -2.25},
			)
		},
	},
	{
		file: "stats.frame",
		frame: &Stats{
			FromCache: true, SharedScan: true,
			CacheLookupMS: 0.125, IOMS: 7.5, ComputeMS: 2.25, CacheUpdateMS: 0.0625, TotalMS: 9.9375,
			AtomsRead: 4096, HaloAtoms: 96, PointsExamined: 1 << 21, AtomsSkipped: 33,
			Coverage: 0.75, Failed: 1, QueueWaitMS: 1.5, ScansSaved: 2, Shared: 3,
		},
		write: func(w *Writer) error {
			return w.Stats(Stats{
				FromCache: true, SharedScan: true,
				CacheLookupMS: 0.125, IOMS: 7.5, ComputeMS: 2.25, CacheUpdateMS: 0.0625, TotalMS: 9.9375,
				AtomsRead: 4096, HaloAtoms: 96, PointsExamined: 1 << 21, AtomsSkipped: 33,
				Coverage: 0.75, Failed: 1, QueueWaitMS: 1.5, ScansSaved: 2, Shared: 3,
			})
		},
	},
	{
		file:  "counts.frame",
		frame: &Counts{Counts: []int64{0, 1, 1 << 40, 123456, 7}},
		write: func(w *Writer) error {
			return w.Counts([]int64{0, 1, 1 << 40, 123456, 7})
		},
	},
	{
		file: "error.frame",
		frame: &ErrorFrame{
			Class: ClassOverQuota, Kind: "over_quota",
			Msg: "tenant alice over concurrent-query quota", Tenant: "alice",
			Seen: 9, Limit: 4,
		},
		write: func(w *Writer) error {
			return w.Error(ErrorFrame{
				Class: ClassOverQuota, Kind: "over_quota",
				Msg: "tenant alice over concurrent-query quota", Tenant: "alice",
				Seen: 9, Limit: 4,
			})
		},
	},
	{
		file:  "end.frame",
		frame: &End{Items: 4, AtomsScanned: 123456},
		write: func(w *Writer) error {
			return w.End(End{Items: 4, AtomsScanned: 123456})
		},
	},
	{
		// A requested tree (trace ID set): a root, a child, and a grafted
		// remote span whose re-aligned start is negative.
		file:  "spans.frame",
		frame: &Spans{TraceID: goldenTraceID, Spans: goldenSpans},
		write: func(w *Writer) error {
			return w.Spans(goldenTraceID, goldenSpans)
		},
	},
	{
		// Raw blobs, not base64: every byte value must survive, and codes
		// need not be sorted.
		file:  "atoms.frame",
		frame: &Atoms{Codes: goldenAtomCodes, Blobs: goldenAtomBlobs},
		write: func(w *Writer) error {
			return w.Atoms(goldenAtomCodes, goldenAtomBlobs)
		},
	},
}

const goldenTraceID = "a1b2c3d4e5f60718"

var (
	goldenSpans = []Span{
		{ID: 1, Name: "threshold", StartUS: 0, DurUS: 1500},
		{ID: 2, Parent: 1, Name: "scan_io", StartUS: 250, DurUS: 1000},
		{ID: 7, Parent: 2, Name: "rpc:/v1/atoms", StartUS: -3, DurUS: 1 << 33},
	}
	goldenAtomCodes = []uint64{9, 1 << 40, 3}
	goldenAtomBlobs = [][]byte{{0x00, 0xff, 0x7f, 0x80}, {'T', 'B', 'F', 1, '\n'}, {0x2a}}
)

func TestGoldenFrames(t *testing.T) {
	update := os.Getenv("TURBDB_UPDATE_GOLDEN") != ""
	for _, tc := range goldenCases {
		t.Run(tc.file, func(t *testing.T) {
			var buf bytes.Buffer
			w := NewWriter(&buf)
			if err := tc.write(w); err != nil {
				t.Fatalf("encode: %v", err)
			}
			path := filepath.Join("testdata", tc.file)
			if update {
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatalf("writing fixture: %v", err)
				}
				t.Logf("updated %s (%d bytes)", path, buf.Len())
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading fixture (regenerate with TURBDB_UPDATE_GOLDEN=1): %v", err)
			}
			// Direction 1: re-encoding the pinned structs reproduces the
			// committed bytes exactly.
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("encoded bytes drifted from %s:\n got %x\nwant %x", path, buf.Bytes(), want)
			}
			// Direction 2: the committed bytes decode to exactly the pinned
			// structs (NaN compared by bit pattern, not ==).
			r := NewReader(bytes.NewReader(want))
			frame, err := r.Next()
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			assertFrameEqual(t, frame, tc.frame)
			if _, err := r.Next(); err != io.EOF {
				t.Fatalf("fixture has trailing frames: %v", err)
			}
		})
	}
}

// assertFrameEqual compares decoded and pinned frames, comparing float32
// value planes by bit pattern so NaN fixtures work.
func assertFrameEqual(t *testing.T, got, want any) {
	t.Helper()
	gp, gok := got.(*Points)
	wp, wok := want.(*Points)
	if gok != wok {
		t.Fatalf("decoded %T, want %T", got, want)
	}
	if gok {
		if !reflect.DeepEqual(gp.Codes, wp.Codes) {
			t.Fatalf("codes = %v, want %v", gp.Codes, wp.Codes)
		}
		if len(gp.Values) != len(wp.Values) {
			t.Fatalf("%d values, want %d", len(gp.Values), len(wp.Values))
		}
		for i := range wp.Values {
			if math.Float32bits(gp.Values[i]) != math.Float32bits(wp.Values[i]) {
				t.Fatalf("value[%d] bits = %x, want %x", i, math.Float32bits(gp.Values[i]), math.Float32bits(wp.Values[i]))
			}
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
}
