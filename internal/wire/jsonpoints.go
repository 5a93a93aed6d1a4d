package wire

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/query"
)

// This file is the one hand-written part of the JSON codec: the "points"
// array of a solo threshold or top-k answer, written straight from and read
// straight into []query.ResultPoint. Every other byte of those bodies still
// goes through encoding/json, and the bytes, the accepted inputs, the
// errors and the results stay encoding/json's own by construction:
//
//   - writePointsJSON marshals the DTO with nil points, which encoding/json
//     opens with {"points":null, and splices the array in where null
//     stood. Points is the first field of ThresholdResponse and
//     TopKResponse; testdata/*.json pin the bytes.
//   - decodePoints parses the array itself only in the shape
//     writePointsJSON writes (no whitespace, {"z":<digits>,"v":<number>}
//     items) and hands the rest of the object to encoding/json. Any other
//     body is decoded whole by encoding/json.
//
// A json.Marshaler/Unmarshaler on the DTO would be shorter and slower:
// encoding/json re-scans and compacts what a Marshaler returns and skips
// over what an Unmarshaler receives.

// nullPoints is how encoding/json opens a body whose Points are nil.
const nullPoints = `{"points":null`

// pointsOpen opens a body writePointsJSON wrote.
const pointsOpen = `{"points":[`

// bodyBufs recycles the whole-body buffers the two directions build and
// read, so an answer's size costs no allocations.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// writePointsJSON is writeJSON for a ThresholdResponse or TopKResponse
// whose Points are nil, with pts spliced in. A body encoding/json cannot
// write (a NaN or ±Inf value) goes through writeJSON with the points filled
// in, so the failure is logged and the body left empty as it always was.
func writePointsJSON(w http.ResponseWriter, body any, pts []query.ResultPoint) int {
	data, err := json.Marshal(body)
	if err != nil || !bytes.HasPrefix(data, []byte(nullPoints)) || !finite(pts) {
		return writeJSON(w, http.StatusOK, withPoints(body, pts))
	}
	bp := bodyBufs.Get().(*[]byte)
	defer bodyBufs.Put(bp)
	// About 30 bytes a point; the rest of the body is data's.
	b := append(slices.Grow((*bp)[:0], len(data)+32*len(pts)), `{"points":`...)
	b = append(append(appendPoints(b, pts), data[len(nullPoints):]...), '\n')
	*bp = b
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(b); err != nil {
		log.Printf("wire: encoding %T: %v", body, err)
	}
	return len(b)
}

// finite reports whether encoding/json can write every value of pts: it
// refuses NaN and ±Inf.
func finite(pts []query.ResultPoint) bool {
	for _, p := range pts {
		if f := float64(p.Value); math.IsInf(f, 0) || math.IsNaN(f) {
			return false
		}
	}
	return true
}

// withPoints fills in the Points of a DTO writePointsJSON was handed.
func withPoints(body any, pts []query.ResultPoint) any {
	switch b := body.(type) {
	case ThresholdResponse:
		b.Points = toDTO(pts)
		return b
	case TopKResponse:
		b.Points = toDTO(pts)
		return b
	}
	return body
}

// appendPoints appends finite pts as encoding/json writes a []PointDTO.
func appendPoints(b []byte, pts []query.ResultPoint) []byte {
	b = append(b, '[')
	for i, p := range pts {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(append(b, `{"z":`...), uint64(p.Code), 10)
		b = append(b, `,"v":`...)
		// encoding/json's float32 form: shortest digits, in exponent form
		// below 1e-6 and from 1e21 up (compared as float32), e-07 as e-7.
		f := float64(p.Value)
		format := byte('f')
		if a := float32(math.Abs(f)); a != 0 && (a < 1e-6 || a >= 1e21) {
			format = 'e'
		}
		b = strconv.AppendFloat(b, f, format, -1, 32)
		if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		b = append(b, '}')
	}
	return append(b, ']')
}

// decodeJSON decodes one JSON value from r into v through encoding/json and
// returns the bytes it consumed: how every JSON answer is read, whole or in
// part.
func decodeJSON(r io.Reader, v any) (int64, error) {
	dec := json.NewDecoder(r)
	err := dec.Decode(v)
	return dec.InputOffset(), err
}

// decodePoints decodes a threshold or top-k body into in and returns its
// points — never nil, like fromDTO's — and the bytes the decode consumed.
// The body is read whole once; a body not in writePointsJSON's shape is
// decoded by decodeJSON exactly as before.
func decodePoints(body io.Reader, in *ThresholdResponse) ([]query.ResultPoint, int64, error) {
	bp := bodyBufs.Get().(*[]byte)
	defer bodyBufs.Put(bp)
	data, rerr := readAll(body, (*bp)[:0])
	*bp = data
	// A whole value in the bytes that arrived is the answer even when the
	// read failed after them, as it was for the streaming decoder.
	if pts, n, ok := decodePointsFast(data, in); ok {
		return pts, n, nil
	}
	*in = ThresholdResponse{}
	// A read error stays where the stream had it, after the bytes that
	// arrived: the decoder fails on it only if the value is still open.
	r := io.Reader(bytes.NewReader(data))
	if rerr != nil {
		r = io.MultiReader(r, errReader{rerr})
	}
	n, err := decodeJSON(r, in)
	return fromDTO(in.Points), n, err
}

// readAll is io.ReadAll into b's spare capacity, doubling when it is full.
func readAll(r io.Reader, b []byte) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = slices.Grow(b, max(512, len(b)))
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// errReader fails every read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// decodePointsFast decodes a body in writePointsJSON's shape: it opens
// with {"points":[, every item is {"z":<digits>,"v":<number>} with no
// whitespace, the array is followed by "}" or `,"`, and the rest of the
// object cannot name the Points field (mayNamePoints). The rest is decoded
// as an object of its own by decodeJSON, its opening byte — the ']' of
// "]}" or the ',' after the array — briefly overwritten with '{'. It
// reports false for anything else, or if that decode fails, leaving in
// half-filled.
func decodePointsFast(data []byte, in *ThresholdResponse) ([]query.ResultPoint, int64, bool) {
	pts, i, ok := parsePoints(data)
	if !ok {
		return nil, 0, false
	}
	j := i
	switch {
	case at(data, i, "}"):
		j = i - 1
	case !at(data, i, `,"`):
		return nil, 0, false
	}
	if mayNamePoints(data[j+1:]) {
		return nil, 0, false
	}
	c := data[j]
	data[j] = '{'
	n, err := decodeJSON(bytes.NewReader(data[j:]), in)
	data[j] = c
	if err != nil {
		return nil, 0, false
	}
	return pts, int64(j) + n, true
}

// parsePoints parses the points array of a body opening with pointsOpen
// and returns the index just past its ']'. Each value goes through
// strconv.ParseFloat(v, 32), the call encoding/json makes.
func parsePoints(data []byte) ([]query.ResultPoint, int, bool) {
	if !at(data, 0, pointsOpen) {
		return nil, 0, false
	}
	i := len(pointsOpen)
	// Every item opens with {"z":, so this bounds the count from above.
	pts := make([]query.ResultPoint, 0, bytes.Count(data[i:], []byte(`{"z":`)))
	if at(data, i, "]") {
		return pts, i + 1, true
	}
	for {
		if !at(data, i, `{"z":`) {
			return nil, 0, false
		}
		i += len(`{"z":`)
		code, n := parseCode(data[i:])
		if n == 0 || !at(data, i+n, `,"v":`) {
			return nil, 0, false
		}
		i += n + len(`,"v":`)
		n = numberLen(data[i:])
		if n == 0 || !at(data, i+n, "}") {
			return nil, 0, false
		}
		v, err := strconv.ParseFloat(string(data[i:i+n]), 32)
		if err != nil {
			return nil, 0, false
		}
		pts = append(pts, query.ResultPoint{Code: morton.Code(code), Value: float32(v)})
		i += n + 1
		switch {
		case at(data, i, ","):
			i++
		case at(data, i, "]"):
			return pts, i + 1, true
		default:
			return nil, 0, false
		}
	}
}

// at reports whether data holds s at index i.
func at(data []byte, i int, s string) bool {
	return len(data)-i >= len(s) && string(data[i:i+len(s)]) == s
}

// parseCode reads the digits b opens with as a uint64. n is 0 unless they
// are a JSON integer strconv.ParseUint accepts: no leading zero, no
// overflow.
func parseCode(b []byte) (v uint64, n int) {
	for ; n < len(b) && '0' <= b[n] && b[n] <= '9'; n++ {
		d := uint64(b[n] - '0')
		if v > (math.MaxUint64-d)/10 {
			return 0, 0
		}
		v = v*10 + d
	}
	if n > 1 && b[0] == '0' {
		return 0, 0
	}
	return v, n
}

// numberLen is the length of the JSON number b opens with, or 0.
func numberLen(b []byte) int {
	digits := func(i int) int {
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i
	}
	i := 0
	if at(b, i, "-") {
		i++
	}
	switch {
	case at(b, i, "0"):
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(i)
	default:
		return 0
	}
	if at(b, i, ".") {
		if j := digits(i + 1); j > i+1 {
			i = j
		} else {
			return 0
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		j := i + 1
		if at(b, j, "+") || at(b, j, "-") {
			j++
		}
		if k := digits(j); k > j {
			i = k
		} else {
			return 0
		}
	}
	return i
}

// mayNamePoints reports whether b could hold a key encoding/json would
// match to the Points field: "points" quoted in any ASCII case, or any
// escape or non-ASCII byte (encoding/json folds ſ to s and unescapes keys).
// A string value that looks like one counts too; the whole-body decode then
// settles it.
func mayNamePoints(b []byte) bool {
	for i, c := range b {
		if c == '\\' || c >= utf8.RuneSelf ||
			c == '"' && len(b)-i >= 8 && b[i+7] == '"' && bytes.EqualFold(b[i+1:i+7], []byte("points")) {
			return true
		}
	}
	return false
}
