// Package binproto implements v1 of the turbdb binary streaming wire
// format: the length-prefixed frame encoding that carries query results
// between mediator, nodes and users when both ends negotiate
// Content-Type: application/x-turbdb-frame (the JSON v1 shapes remain the
// debug/compat encoding).
//
// A stream is a 4-byte magic ("TBF" + version byte) followed by frames:
//
//	frame   := length(uint32 LE) type(1 byte) payload
//	length  counts the type byte plus the payload, and is capped by
//	MaxFrameBytes so a corrupt prefix can never force an unbounded
//	allocation.
//
// Result points travel columnar: a points frame holds up to MaxChunk
// codes as zigzag-varint deltas (per-node results are Morton-sorted, so
// deltas are small and positive) followed by the packed little-endian
// float32 value plane. Large results are chunked across many points
// frames, so neither encoder nor decoder ever holds the full encoded
// body; a stats (or error) frame closes each logical result and an end
// frame closes the stream. Shared-scan batch responses reuse the same
// vocabulary — one points*+stats (or error) group per batch member, in
// request order, then the end frame carrying the member count. Halo
// exchange answers with atoms frames (raw blobs, no base64) in place of
// points, and a traced request gets its spans in spans frames between the
// last result and the end frame; nothing may follow the end frame.
//
// The layout is pinned byte-for-byte by the golden fixtures in testdata/
// (the binary analogue of the //turbdb:wire-baseline directives freezing
// the JSON shapes): any change to this file that alters encoded bytes
// fails TestGoldenFrames loudly. Decoding is strict — unknown frame
// types, unknown flag bits, trailing payload bytes and truncated streams
// are all errors, never panics (FuzzFrameDecode enforces this).
package binproto

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// MediaType is the content type of a v1 frame stream, used for request
// negotiation (Accept) and response labeling (Content-Type).
const MediaType = "application/x-turbdb-frame"

// Version is the frame-format version carried in the stream magic.
const Version = 1

// magic opens every stream: "TBF" plus the version byte.
var magic = [4]byte{'T', 'B', 'F', Version}

const (
	// MaxFrameBytes caps the declared length of a single frame. A decoder
	// never allocates more than this for one frame, no matter what the
	// length prefix claims.
	MaxFrameBytes = 1 << 24
	// MaxChunk caps the points (and PDF counts) per frame. Encoders split
	// larger results across frames; decoders reject bigger declared counts
	// before allocating. It also caps the spans and atoms of one frame.
	MaxChunk = 8192
	// MaxName caps a span name and a trace ID.
	MaxName = 256
	// atomsFrameBytes is the blob payload an encoder aims to stay under per
	// atoms frame; a single larger blob still gets a frame to itself.
	atomsFrameBytes = 1 << 20
)

// Frame type bytes. New frame types append to this list and require a
// golden fixture plus fuzz seeds (see CONTRIBUTING.md).
const (
	TypePoints byte = 0x01
	TypeStats  byte = 0x02
	TypeCounts byte = 0x03
	TypeError  byte = 0x04
	TypeEnd    byte = 0x05
	TypeSpans  byte = 0x06
	TypeAtoms  byte = 0x07
)

// Class is the retry class an error frame carries end-to-end, so a
// binary client classifies failures exactly as the server did instead of
// inferring a class from an HTTP status.
type Class byte

// Error classes (the faulttol vocabulary plus the scheduler's typed
// admission rejection).
const (
	ClassPermanent Class = 0
	ClassTransient Class = 1
	ClassOverQuota Class = 2
)

// Points is one columnar chunk of result points: parallel code and value
// planes of equal length.
type Points struct {
	Codes  []uint64
	Values []float32
}

// Stats closes one logical result: the flags and accounting of a
// threshold/PDF/top-k response (the binary form of the JSON response
// envelope minus the points, which travel in their own frames).
type Stats struct {
	FromCache  bool
	SharedScan bool

	// Breakdown phases in milliseconds, mirroring BreakdownDTO.
	CacheLookupMS  float64
	IOMS           float64
	ComputeMS      float64
	CacheUpdateMS  float64
	TotalMS        float64
	AtomsRead      int
	HaloAtoms      int
	PointsExamined int
	AtomsSkipped   int

	Coverage    float64
	Failed      int
	QueueWaitMS float64
	ScansSaved  int
	// Shared is the batch-member share count (shared-scan batches only).
	Shared int
}

// Counts is one chunk of PDF histogram bins.
type Counts struct {
	Counts []int64
}

// ErrorFrame is a typed failure: either the whole request's (solo
// responses) or one batch member's. Kind carries the domain-error
// vocabulary of the JSON ErrorResponse ("threshold_too_low",
// "over_quota", "unavailable"); Class carries the retry class.
type ErrorFrame struct {
	Class  Class
	Kind   string
	Msg    string
	Tenant string
	Seen   int
	Limit  int
}

// Span is one trace span in the wire time base, field for field the JSON
// SpanDTO: microsecond offsets from the recording service's trace epoch.
type Span struct {
	ID      uint64
	Parent  uint64
	Name    string
	StartUS int64
	DurUS   int64
}

// Spans is one chunk of the spans a traced request recorded. TraceID is
// set when they are the whole tree of a request that asked for one, and
// empty when the caller grafts them under its own RPC span.
type Spans struct {
	TraceID string
	Spans   []Span
}

// Atoms is one chunk of raw atom blobs (halo exchange): parallel code and
// blob planes of equal length.
type Atoms struct {
	Codes []uint64
	Blobs [][]byte
}

// End closes a stream: the number of logical results (stats or error
// frames) that preceded it — a cheap integrity check — and the batch-wide
// physical scan count (shared-scan batches only).
type End struct {
	Items        int
	AtomsScanned int
}

// FormatError is a frame-format violation (bad magic, corrupt length,
// unknown type, truncated payload). It is permanent: re-sending the same
// bytes cannot help.
type FormatError struct {
	msg string
}

// Error implements error.
func (e *FormatError) Error() string { return "binproto: " + e.msg }

// Transient classifies format violations as non-retryable.
func (e *FormatError) Transient() bool { return false }

func errf(format string, args ...any) error {
	return &FormatError{msg: fmt.Sprintf(format, args...)}
}

// Writer encodes a frame stream. The magic is emitted before the first
// frame; the caller is responsible for ending the stream with End. Not
// safe for concurrent use.
type Writer struct {
	w       io.Writer
	started bool
	buf     []byte
	frames  int
	chunks  int
	bytes   int
}

// NewWriter returns a Writer encoding to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// BytesWritten returns the stream bytes emitted so far (magic + frames).
func (w *Writer) BytesWritten() int { return w.bytes }

// Frames returns the number of frames emitted so far.
func (w *Writer) Frames() int { return w.frames }

// Chunks returns the number of points/counts chunk frames emitted so far.
func (w *Writer) Chunks() int { return w.chunks }

// grow returns a zero-length scratch slice with at least n capacity,
// reusing the writer's buffer across frames.
func (w *Writer) grow(n int) []byte {
	if cap(w.buf) < n {
		w.buf = make([]byte, 0, n)
	}
	return w.buf[:0]
}

// writeFrame emits one frame (length prefix, type byte, payload).
func (w *Writer) writeFrame(typ byte, payload []byte) error {
	if len(payload)+1 > MaxFrameBytes {
		return errf("frame payload %d bytes exceeds MaxFrameBytes", len(payload))
	}
	if !w.started {
		if _, err := w.w.Write(magic[:]); err != nil {
			return fmt.Errorf("binproto: writing magic: %w", err)
		}
		w.bytes += len(magic)
		w.started = true
	}
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = typ
	if _, err := w.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("binproto: writing frame header: %w", err)
	}
	if _, err := w.w.Write(payload); err != nil {
		return fmt.Errorf("binproto: writing frame payload: %w", err)
	}
	w.frames++
	w.bytes += len(hdr) + len(payload)
	return nil
}

// Points emits the result points as one or more columnar chunk frames of
// at most MaxChunk points each. Zero points emit no frame at all: the
// closing stats frame alone means an empty result.
func (w *Writer) Points(codes []uint64, values []float32) error {
	if len(codes) != len(values) {
		return errf("points planes disagree: %d codes, %d values", len(codes), len(values))
	}
	for len(codes) > 0 {
		n := min(len(codes), MaxChunk)
		if err := w.pointsChunk(codes[:n], values[:n]); err != nil {
			return err
		}
		codes, values = codes[n:], values[n:]
	}
	return nil
}

// pointsChunk encodes one chunk: uvarint count, count zigzag-varint code
// deltas (the first delta is from zero), then the packed float32 plane.
// Deltas use wraparound uint64 arithmetic, so unsorted codes (top-k
// results are value-ordered) still round-trip exactly.
func (w *Writer) pointsChunk(codes []uint64, values []float32) error {
	buf := w.grow(binary.MaxVarintLen64*(len(codes)+1) + 4*len(codes))
	buf = binary.AppendUvarint(buf, uint64(len(codes)))
	prev := uint64(0)
	for _, c := range codes {
		buf = binary.AppendVarint(buf, int64(c-prev))
		prev = c
	}
	for _, v := range values {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
	}
	w.buf = buf
	w.chunks++
	return w.writeFrame(TypePoints, buf)
}

// Stats emits the stats frame closing one logical result.
func (w *Writer) Stats(s Stats) error {
	buf := w.grow(128)
	var flags byte
	if s.FromCache {
		flags |= 1
	}
	if s.SharedScan {
		flags |= 2
	}
	buf = append(buf, flags)
	for _, f := range [...]float64{s.CacheLookupMS, s.IOMS, s.ComputeMS, s.CacheUpdateMS, s.TotalMS} {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
	}
	for _, n := range [...]int{s.AtomsRead, s.HaloAtoms, s.PointsExamined, s.AtomsSkipped} {
		buf = binary.AppendVarint(buf, int64(n))
	}
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.Coverage))
	buf = binary.AppendVarint(buf, int64(s.Failed))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.QueueWaitMS))
	buf = binary.AppendVarint(buf, int64(s.ScansSaved))
	buf = binary.AppendVarint(buf, int64(s.Shared))
	w.buf = buf
	return w.writeFrame(TypeStats, buf)
}

// Counts emits PDF histogram bins as one or more chunk frames of at most
// MaxChunk bins each.
func (w *Writer) Counts(counts []int64) error {
	for len(counts) > 0 {
		n := min(len(counts), MaxChunk)
		buf := w.grow(binary.MaxVarintLen64 * (n + 1))
		buf = binary.AppendUvarint(buf, uint64(n))
		for _, c := range counts[:n] {
			buf = binary.AppendVarint(buf, c)
		}
		w.buf = buf
		w.chunks++
		if err := w.writeFrame(TypeCounts, buf); err != nil {
			return err
		}
		counts = counts[n:]
	}
	return nil
}

// appendStr appends a length-prefixed string.
func appendStr(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// Error emits a typed error frame.
func (w *Writer) Error(e ErrorFrame) error {
	if e.Class > ClassOverQuota {
		return errf("unknown error class %d", e.Class)
	}
	buf := w.grow(32 + len(e.Kind) + len(e.Msg) + len(e.Tenant))
	buf = append(buf, byte(e.Class))
	for _, s := range [...]string{e.Kind, e.Msg, e.Tenant} {
		buf = appendStr(buf, s)
	}
	buf = binary.AppendVarint(buf, int64(e.Seen))
	buf = binary.AppendVarint(buf, int64(e.Limit))
	w.buf = buf
	return w.writeFrame(TypeError, buf)
}

// Spans emits trace spans as one or more frames of at most MaxChunk spans
// each, every one carrying traceID. Zero spans emit no frame.
func (w *Writer) Spans(traceID string, spans []Span) error {
	if len(traceID) > MaxName {
		return errf("trace ID of %d bytes exceeds MaxName", len(traceID))
	}
	for len(spans) > 0 {
		n := min(len(spans), MaxChunk)
		buf := w.grow(len(traceID) + 48*n)
		buf = appendStr(buf, traceID)
		buf = binary.AppendUvarint(buf, uint64(n))
		for _, s := range spans[:n] {
			if len(s.Name) > MaxName {
				return errf("span name of %d bytes exceeds MaxName", len(s.Name))
			}
			buf = binary.AppendUvarint(buf, s.ID)
			buf = binary.AppendUvarint(buf, s.Parent)
			buf = appendStr(buf, s.Name)
			buf = binary.AppendVarint(buf, s.StartUS)
			buf = binary.AppendVarint(buf, s.DurUS)
		}
		w.buf = buf
		if err := w.writeFrame(TypeSpans, buf); err != nil {
			return err
		}
		spans = spans[n:]
	}
	return nil
}

// Atoms emits raw atom blobs, each as its code and a length-prefixed byte
// run, split across frames of at most MaxChunk atoms and about
// atomsFrameBytes of blob each. Zero atoms emit no frame.
func (w *Writer) Atoms(codes []uint64, blobs [][]byte) error {
	if len(codes) != len(blobs) {
		return errf("atoms planes disagree: %d codes, %d blobs", len(codes), len(blobs))
	}
	for len(codes) > 0 {
		n, size := 0, 0
		for n < len(codes) && n < MaxChunk && (n == 0 || size+len(blobs[n]) <= atomsFrameBytes) {
			size += len(blobs[n])
			n++
		}
		buf := w.grow(size + 2*binary.MaxVarintLen64*(n+1))
		buf = binary.AppendUvarint(buf, uint64(n))
		for i, c := range codes[:n] {
			buf = binary.AppendUvarint(buf, c)
			buf = binary.AppendUvarint(buf, uint64(len(blobs[i])))
			buf = append(buf, blobs[i]...)
		}
		w.buf = buf
		if err := w.writeFrame(TypeAtoms, buf); err != nil {
			return err
		}
		codes, blobs = codes[n:], blobs[n:]
	}
	return nil
}

// End emits the stream-closing end frame.
func (w *Writer) End(e End) error {
	buf := w.grow(2 * binary.MaxVarintLen64)
	buf = binary.AppendVarint(buf, int64(e.Items))
	buf = binary.AppendVarint(buf, int64(e.AtomsScanned))
	w.buf = buf
	return w.writeFrame(TypeEnd, buf)
}

// Reader decodes a frame stream. Next returns io.EOF at a clean
// stream end (after a complete frame); callers enforce that the last
// decoded frame was an End. Not safe for concurrent use.
type Reader struct {
	r       io.Reader
	started bool
	ended   bool
	payload bytes.Buffer
	bytes   int
}

// NewReader returns a Reader decoding from r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// BytesRead returns the stream bytes consumed so far.
func (r *Reader) BytesRead() int { return r.bytes }

// Next decodes the next frame, returning *Points, *Stats, *Counts,
// *ErrorFrame, *Spans, *Atoms or *End. At a clean end of input it returns
// io.EOF; a stream truncated mid-frame, or one that carries anything
// after its end frame, returns a FormatError. Decoded slices and strings
// are freshly allocated and remain valid after further calls.
func (r *Reader) Next() (any, error) {
	if !r.started {
		var m [4]byte
		if _, err := io.ReadFull(r.r, m[:]); err != nil {
			return nil, errf("reading magic: %v", err)
		}
		if m != magic {
			return nil, errf("bad magic %x (want %x)", m, magic)
		}
		r.started = true
		r.bytes += len(m)
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, errf("reading frame length: %v", err)
	}
	if r.ended {
		return nil, errf("frame after the end frame")
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrameBytes {
		return nil, errf("frame length %d out of range (1..%d)", n, MaxFrameBytes)
	}
	// CopyN grows the buffer only as bytes actually arrive, so a corrupt
	// length prefix on a truncated stream never allocates the claimed size.
	r.payload.Reset()
	if _, err := io.CopyN(&r.payload, r.r, int64(n)); err != nil {
		return nil, errf("frame truncated: declared %d bytes: %v", n, err)
	}
	r.bytes += len(hdr) + int(n)
	p := payload{b: r.payload.Bytes()}
	typ := p.byte()
	var frame any
	switch typ {
	case TypePoints:
		frame = decodePoints(&p)
	case TypeStats:
		frame = decodeStats(&p)
	case TypeCounts:
		frame = decodeCounts(&p)
	case TypeError:
		frame = decodeError(&p)
	case TypeEnd:
		frame = decodeEnd(&p)
		r.ended = true
	case TypeSpans:
		frame = decodeSpans(&p)
	case TypeAtoms:
		frame = decodeAtoms(&p)
	default:
		return nil, errf("unknown frame type 0x%02x", typ)
	}
	if p.err != nil {
		return nil, p.err
	}
	if p.off != len(p.b) {
		return nil, errf("frame type 0x%02x has %d trailing payload bytes", typ, len(p.b)-p.off)
	}
	return frame, nil
}

// payload is a strict cursor over one frame's payload bytes. The first
// violation sticks in err and every later read returns zero, so a decoder
// reads its fields straight through and Next checks once.
type payload struct {
	b   []byte
	off int
	err error
}

func (p *payload) fail(format string, args ...any) {
	if p.err == nil {
		p.err = errf(format, args...)
	}
}

// take returns the next n payload bytes (aliasing the payload), or nil
// once the cursor has failed or fewer than n are left.
func (p *payload) take(n int, what string) []byte {
	if p.err == nil && n > len(p.b)-p.off {
		p.fail("payload truncated reading %s", what)
	}
	if p.err != nil {
		return nil
	}
	p.off += n
	return p.b[p.off-n : p.off]
}

func (p *payload) byte() byte {
	if b := p.take(1, "byte"); b != nil {
		return b[0]
	}
	return 0
}

func (p *payload) uvarint() uint64 {
	if p.err != nil {
		return 0
	}
	v, n := binary.Uvarint(p.b[p.off:])
	if n <= 0 {
		p.fail("payload truncated or overlong uvarint")
		return 0
	}
	p.off += n
	return v
}

func (p *payload) varint() int64 {
	if p.err != nil {
		return 0
	}
	v, n := binary.Varint(p.b[p.off:])
	if n <= 0 {
		p.fail("payload truncated or overlong varint")
		return 0
	}
	p.off += n
	return v
}

func (p *payload) f64() float64 {
	if b := p.take(8, "float64"); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// run reads a length-prefixed byte run, aliasing the payload; the length
// is checked against what is left before anything is sliced.
func (p *payload) run(what string) []byte {
	n := p.uvarint()
	if p.err == nil && n > uint64(len(p.b)-p.off) {
		p.fail("%s length %d exceeds remaining payload %d", what, n, len(p.b)-p.off)
	}
	return p.take(int(n), what)
}

func (p *payload) str() string { return string(p.run("string")) }

// name reads a string bounded by MaxName.
func (p *payload) name(what string) string {
	b := p.run(what)
	if len(b) > MaxName {
		p.fail("%s of %d bytes exceeds MaxName", what, len(b))
	}
	return string(b)
}

// intField decodes a varint-encoded int field, rejecting values outside
// the int range on 32-bit builds.
func (p *payload) intField() int {
	v := p.varint()
	if int64(int(v)) != v {
		p.fail("integer field %d overflows int", v)
	}
	return int(v)
}

// count reads a chunk's element count, rejecting — before anything is
// allocated — one over MaxChunk or one the remaining payload cannot hold
// at minBytes per element.
func (p *payload) count(what string, minBytes uint64) int {
	n := p.uvarint()
	if p.err == nil && n > MaxChunk {
		p.fail("%s chunk declares %d entries (max %d)", what, n, MaxChunk)
	}
	if p.err == nil && uint64(len(p.b)-p.off) < minBytes*n {
		p.fail("%s chunk declares %d entries but has %d payload bytes", what, n, len(p.b)-p.off)
	}
	if p.err != nil {
		return 0
	}
	return int(n)
}

func decodePoints(p *payload) *Points {
	// The value plane needs 4 bytes per point and each delta at least one.
	n := p.count("points", 5)
	f := &Points{Codes: make([]uint64, n), Values: make([]float32, n)}
	prev := uint64(0)
	for i := range f.Codes {
		prev += uint64(p.varint())
		f.Codes[i] = prev
	}
	// The value plane in one bounds check: this loop runs once per point.
	if plane := p.take(4*n, "value plane"); plane != nil {
		for i := range f.Values {
			f.Values[i] = math.Float32frombits(binary.LittleEndian.Uint32(plane[4*i:]))
		}
	}
	return f
}

func decodeStats(p *payload) *Stats {
	flags := p.byte()
	if flags > 3 {
		p.fail("stats frame has unknown flag bits 0x%02x", flags)
	}
	s := &Stats{FromCache: flags&1 != 0, SharedScan: flags&2 != 0}
	for _, dst := range [...]*float64{&s.CacheLookupMS, &s.IOMS, &s.ComputeMS, &s.CacheUpdateMS, &s.TotalMS} {
		*dst = p.f64()
	}
	for _, dst := range [...]*int{&s.AtomsRead, &s.HaloAtoms, &s.PointsExamined, &s.AtomsSkipped} {
		*dst = p.intField()
	}
	s.Coverage = p.f64()
	s.Failed = p.intField()
	s.QueueWaitMS = p.f64()
	s.ScansSaved = p.intField()
	s.Shared = p.intField()
	return s
}

func decodeCounts(p *payload) *Counts {
	f := &Counts{Counts: make([]int64, p.count("counts", 1))}
	for i := range f.Counts {
		f.Counts[i] = p.varint()
	}
	return f
}

func decodeError(p *payload) *ErrorFrame {
	cls := p.byte()
	if Class(cls) > ClassOverQuota {
		p.fail("unknown error class %d", cls)
	}
	return &ErrorFrame{
		Class: Class(cls), Kind: p.str(), Msg: p.str(), Tenant: p.str(),
		Seen: p.intField(), Limit: p.intField(),
	}
}

func decodeSpans(p *payload) *Spans {
	f := &Spans{TraceID: p.name("trace ID")}
	// A span is at least five bytes: two IDs, a name length, two offsets.
	f.Spans = make([]Span, p.count("spans", 5))
	for i := range f.Spans {
		f.Spans[i] = Span{
			ID: p.uvarint(), Parent: p.uvarint(), Name: p.name("span name"),
			StartUS: p.varint(), DurUS: p.varint(),
		}
	}
	return f
}

func decodeAtoms(p *payload) *Atoms {
	// An atom is at least two bytes: its code and its blob length.
	n := p.count("atoms", 2)
	f := &Atoms{Codes: make([]uint64, n), Blobs: make([][]byte, n)}
	// One copy of the frame's blob bytes backs every blob: the payload
	// buffer is reused by the next frame, and the copy is no larger than it.
	backing := make([]byte, 0, len(p.b)-p.off)
	for i := range f.Codes {
		f.Codes[i] = p.uvarint()
		blob := p.run("atom blob")
		backing = append(backing, blob...)
		f.Blobs[i] = backing[len(backing)-len(blob) : len(backing) : len(backing)]
	}
	return f
}

func decodeEnd(p *payload) *End {
	return &End{Items: p.intField(), AtomsScanned: p.intField()}
}
