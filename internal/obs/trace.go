package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed stage of a query: plan, cache lookup, shard scan, halo
// fetch, merge... Start and End are offsets from the trace epoch in the
// trace's time base (wall-clock on servers, virtual time in the cluster
// simulation).
type Span struct {
	// ID identifies the span within its trace (1-based; never 0).
	ID uint64
	// Parent is the enclosing span's ID; 0 marks a root span.
	Parent uint64
	// Name is the stage name (e.g. "threshold", "cache_lookup", "halo_fetch").
	Name string
	// Start and End are offsets from the trace epoch. End == 0 with
	// Start > 0 can only mean the span was never finished.
	Start time.Duration
	End   time.Duration
	// Attr is the one count a stage may attach to its span (scan_io carries
	// atoms_pruned, halo_fetch halo_bytes: the bytes of the halo a scan
	// needed from peers, also when a halo store served them); the zero value
	// is none. It stays in the recording process: the wire's span DTOs do
	// not carry it.
	Attr Attr
}

// Attr is a named count attached to a span.
type Attr struct {
	Key   string
	Value int64
}

// Duration returns the span's elapsed time.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Trace collects the spans of one query. Minted at the mediator, its ID is
// propagated through the wire protocol's request DTOs; nodes record their
// stage spans into a local Trace and ship them back in the response, where
// the client grafts them under its RPC span. Safe for concurrent use (query
// workers record spans from many goroutines).
type Trace struct {
	id    string
	now   func() time.Duration // time base; monotonic within the trace
	epoch time.Duration

	mu    sync.Mutex
	next  uint64
	spans []Span // guarded by mu
}

// NewTrace creates a trace identified by id. now supplies the time base and
// may be nil for wall-clock; the cluster simulation passes its virtual
// clock so span durations match the simulated timings.
func NewTrace(id string, now func() time.Duration) *Trace {
	if now == nil {
		start := time.Now()
		now = func() time.Duration { return time.Since(start) }
	}
	return &Trace{id: id, now: now, epoch: now()}
}

// TraceFromSpans rebuilds a trace from externally collected spans (e.g. a
// TraceDTO received over the wire) for rendering.
func TraceFromSpans(id string, spans []Span) *Trace {
	t := NewTrace(id, nil)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spans...)
	for _, s := range spans {
		if s.ID > t.next {
			t.next = s.ID
		}
	}
	return t
}

// NewTraceID mints a random 64-bit trace ID in hex.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is catastrophic enough elsewhere; a fixed ID
		// keeps tracing best-effort.
		return "trace-rand-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// ID returns the trace ID ("" for a nil trace, so callers can propagate
// unconditionally).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// start opens a span under parent and returns its ID.
func (t *Trace) start(parent uint64, name string) uint64 {
	at := t.now() - t.epoch
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	id := t.next
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Start: at})
	return id
}

// end closes span id at the current time.
func (t *Trace) end(id uint64) {
	at := t.now() - t.epoch
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if t.spans[i].ID == id {
			t.spans[i].End = at
			return
		}
	}
}

// setAttr attaches a count to the open span id.
func (t *Trace) setAttr(id uint64, a Attr) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if t.spans[i].ID == id {
			t.spans[i].Attr = a
			return
		}
	}
}

// Graft re-parents externally collected spans (a remote node's stage spans)
// under span parent: IDs are remapped after this trace's own sequence and
// offsets are shifted so the remote epoch aligns with the parent span's
// start. Remote span clocks are only comparable to ours through that
// alignment; the tree stays diagnostic, not a clock-sync protocol.
func (t *Trace) Graft(parent uint64, spans []Span) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var shift time.Duration
	for i := range t.spans {
		if t.spans[i].ID == parent {
			shift = t.spans[i].Start
			break
		}
	}
	base := t.next
	var maxID uint64
	for _, s := range spans {
		if s.ID > maxID {
			maxID = s.ID
		}
		ns := Span{
			ID:     base + s.ID,
			Parent: parent,
			Name:   s.Name,
			Start:  s.Start + shift,
			End:    s.End + shift,
		}
		if s.Parent != 0 {
			ns.Parent = base + s.Parent
		}
		t.spans = append(t.spans, ns)
	}
	t.next = base + maxID
}

// Spans returns a snapshot of the recorded spans.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Tree renders the span tree as indented text, children ordered by start
// time, one span per line:
//
//	a1b2c3d4e5f60718
//	└─ threshold                 12.4ms
//	   ├─ plan                   0.1ms
//	   ├─ node[0]                9.8ms
//	   │  └─ scan_io             4.2ms
//	   └─ merge                  0.3ms
func (t *Trace) Tree() string {
	if t == nil {
		return ""
	}
	spans := t.Spans()
	children := make(map[uint64][]Span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	for _, cs := range children {
		sort.Slice(cs, func(i, j int) bool {
			if cs[i].Start != cs[j].Start {
				return cs[i].Start < cs[j].Start
			}
			return cs[i].ID < cs[j].ID
		})
	}
	var b strings.Builder
	b.WriteString(t.id)
	b.WriteByte('\n')
	var walk func(parent uint64, prefix string)
	walk = func(parent uint64, prefix string) {
		cs := children[parent]
		for i, s := range cs {
			connector, childPrefix := "├─ ", prefix+"│  "
			if i == len(cs)-1 {
				connector, childPrefix = "└─ ", prefix+"   "
			}
			label := prefix + connector + s.Name
			fmt.Fprintf(&b, "%-40s %12s", label, s.Duration().Round(time.Microsecond))
			if s.Attr.Key != "" {
				fmt.Fprintf(&b, "  %s=%d", s.Attr.Key, s.Attr.Value)
			}
			b.WriteByte('\n')
			walk(s.ID, childPrefix)
		}
	}
	walk(0, "")
	return b.String()
}

// ctxKey carries a trace plus the current span ID through a context.
type ctxKey struct{}

type ctxTrace struct {
	t      *Trace
	parent uint64
}

// ContextWithTrace attaches a trace to ctx; spans started from the returned
// context become roots of the trace.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, ctxTrace{t: t})
}

// TraceFrom returns the trace attached to ctx, or nil if none is attached.
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	ct, _ := ctx.Value(ctxKey{}).(ctxTrace)
	return ct.t
}

// ActiveSpan is a handle to an open span. The zero value (returned when no
// trace is attached) is a no-op, so instrumentation never branches.
type ActiveSpan struct {
	t  *Trace
	id uint64
}

// End closes the span.
func (a ActiveSpan) End() {
	if a.t != nil {
		a.t.end(a.id)
	}
}

// SetAttr attaches a named count to the span (no-op on the zero handle).
func (a ActiveSpan) SetAttr(key string, value int64) {
	if a.t != nil {
		a.t.setAttr(a.id, Attr{Key: key, Value: value})
	}
}

// Graft re-parents externally collected spans under this span (no-op on the
// zero handle).
func (a ActiveSpan) Graft(spans []Span) {
	if a.t != nil {
		a.t.Graft(a.id, spans)
	}
}

// StartSpan opens a span named name under the current span of ctx and
// returns a context carrying the new span (for nesting) plus a handle to
// close it. When ctx carries no trace — the common untraced query — it
// returns ctx unchanged and a no-op handle without allocating.
func StartSpan(ctx context.Context, name string) (context.Context, ActiveSpan) {
	tr := TraceFrom(ctx)
	if tr == nil {
		return ctx, ActiveSpan{}
	}
	ct, _ := ctx.Value(ctxKey{}).(ctxTrace)
	id := tr.start(ct.parent, name)
	return context.WithValue(ctx, ctxKey{}, ctxTrace{t: tr, parent: id}), ActiveSpan{t: tr, id: id}
}
