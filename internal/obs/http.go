package obs

import (
	"fmt"
	"net/http"
	"sync"
)

// TraceStore is a bounded ring of recently completed traces, served at
// /debug/trace?id=. Both daemons record every traced query here.
type TraceStore struct {
	mu    sync.Mutex
	cap   int
	order []string          // oldest first; guarded by mu
	byID  map[string]*Trace // guarded by mu
}

// NewTraceStore creates a store keeping the most recent capacity traces.
func NewTraceStore(capacity int) *TraceStore {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceStore{cap: capacity, byID: make(map[string]*Trace)}
}

// defaultTraces is the process-global trace ring.
var defaultTraces = NewTraceStore(256)

// Traces returns the process-global trace store.
func Traces() *TraceStore { return defaultTraces }

// Record stores a completed trace, evicting the oldest past capacity.
// Recording the same ID again replaces the stored trace.
func (s *TraceStore) Record(t *Trace) {
	if t == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.byID[t.ID()]; !ok {
		s.order = append(s.order, t.ID())
		for len(s.order) > s.cap {
			delete(s.byID, s.order[0])
			s.order = s.order[1:]
		}
	}
	s.byID[t.ID()] = t
}

// Get returns the trace with the given ID, or nil.
func (s *TraceStore) Get(id string) *Trace {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byID[id]
}

// IDs returns the stored trace IDs, oldest first.
func (s *TraceStore) IDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// MetricsHandler serves a registry's text exposition (GET /metrics).
func MetricsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WriteText(w); err != nil {
			// The status line is already out; nothing to report to the client.
			return
		}
	})
}

// TraceHandler serves a trace store: GET /debug/trace?id=<traceID> renders
// the span tree; without id it lists the stored IDs, newest first.
func TraceHandler(s *TraceStore) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		id := req.URL.Query().Get("id")
		if id == "" {
			ids := s.IDs()
			fmt.Fprintf(w, "%d trace(s) stored; newest first:\n", len(ids))
			for i := len(ids) - 1; i >= 0; i-- {
				fmt.Fprintln(w, ids[i])
			}
			return
		}
		t := s.Get(id)
		if t == nil {
			http.Error(w, fmt.Sprintf("trace %q not found (it may have been evicted)", id), http.StatusNotFound)
			return
		}
		fmt.Fprint(w, t.Tree())
	})
}
