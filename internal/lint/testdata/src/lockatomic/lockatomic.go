// Package lockatomic exercises lockcheck's rule for typed atomics: a
// `// guarded by` annotation on one is a finding at the declaration, since
// atomic access bypasses the mutex. Negative cases prove an unannotated
// typed atomic and a plain guarded field held correctly stay silent.
package lockatomic

import (
	"sync"
	"sync/atomic"
)

type stats struct {
	mu     sync.Mutex
	lagged atomic.Int64 // guarded by mu; want `stats.lagged is a typed atomic but carries a .// guarded by. annotation`
	total  atomic.Int64 // typed atomic, single regime: never flagged
	n      int          // guarded by mu
}

// load reads both atomics without the mutex: the misannotated field is
// reported once, at its declaration, not at every access.
func (s *stats) load() int64 { return s.lagged.Load() + s.total.Load() }

func (s *stats) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}
