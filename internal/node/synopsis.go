package node

import (
	"math"
	"sync"
	"sync/atomic"

	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/morton"
)

// synopsisBudget bounds the node's max-norm table. A key costs 8 bytes per
// atom of the grid: 4 KiB at 64³ points in 8³ atoms, 32 KiB at 128³, 16 MiB
// at the paper's 1024³ — there 128 MiB keep the eight (field, order, step)
// keys a session moves between, 0.1 % of the raw data of those steps; on the
// smaller grids the budget is never reached. A constant, not a knob: the
// table only ever saves work, and the least recently used key is the one
// whose next scan re-learns it for free.
const synopsisBudget = 128 << 20

// synSlotBytes is the size of one atom's slot.
const synSlotBytes = 8

// synUnknown marks an atom whose maximum has not been learned. It is a NaN,
// which the fold (from −Inf, replaced only through >) can never produce.
const synUnknown = 0x7FF8000000000001

// atomPred is one live threshold predicate as the atom filter sees it.
type atomPred struct {
	box       grid.Box
	threshold float64
}

// synKey names one table of the synopsis: the cache's key without the scan
// suffix, because an atom's maximum does not depend on who scans it.
type synKey struct {
	field string // cacheFieldKey(field, order)
	step  int
}

// synopsis is the node's max-norm table: per (field, order, step) and atom,
// the largest norm any grid point of the atom has, exact, learned from the
// norms scans compute anyway. A threshold scan consults it to leave out the
// atoms that cannot hold a qualifying point.
type synopsis struct {
	atoms  int // per key: the grid's atom count
	budget int // synopsisBudget; a field so that tests can shrink it

	mu      sync.Mutex
	entries map[synKey]*synEntry // guarded by mu
	clock   uint64               // guarded by mu
}

// synEntry is the table of one key, indexed by atom code. An atom's maximum
// is a pure function of the stored data, so racing writers store identical
// bits and readers need no lock: every slot is one atomic word.
type synEntry struct {
	max  []atomic.Uint64 // Float64bits of the maximum, or synUnknown
	used uint64          // LRU stamp; read and written under synopsis.mu
}

func newSynopsis(g grid.Grid) *synopsis {
	return &synopsis{atoms: g.NumAtoms(), budget: synopsisBudget, entries: make(map[synKey]*synEntry)}
}

// open returns the table of k, creating it (all atoms unknown) and evicting
// the least recently used keys beyond the budget. A scan holds the entry it
// opened: one that is evicted or dropped meanwhile keeps absorbing that
// scan's writes, unseen by later scans.
func (s *synopsis) open(k synKey) *synEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clock++
	e := s.entries[k]
	if e == nil {
		for len(s.entries) > 0 && (len(s.entries)+1)*s.atoms*synSlotBytes > s.budget {
			s.evictLocked()
		}
		e = &synEntry{max: make([]atomic.Uint64, s.atoms)}
		for i := range e.max {
			e.max[i].Store(synUnknown)
		}
		s.entries[k] = e
		mSynopsisBytes.Add(int64(s.atoms * synSlotBytes))
	}
	e.used = s.clock
	return e
}

// evictLocked removes the least recently used key.
func (s *synopsis) evictLocked() {
	var victim synKey
	oldest := uint64(math.MaxUint64)
	for k, e := range s.entries {
		if e.used < oldest {
			victim, oldest = k, e.used
		}
	}
	s.removeLocked(victim)
}

func (s *synopsis) removeLocked(k synKey) {
	if _, ok := s.entries[k]; ok {
		delete(s.entries, k)
		mSynopsisBytes.Add(-int64(s.atoms * synSlotBytes))
	}
}

// drop forgets what was learned about k, so the next scan is a first touch.
func (s *synopsis) drop(k synKey) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.removeLocked(k)
}

// known returns the learned maximum of atom c.
func (e *synEntry) known(c morton.Code) (float64, bool) {
	bits := e.max[c].Load()
	return math.Float64frombits(bits), bits != synUnknown
}

// learn records the maximum of atom c, every point of which was evaluated.
func (e *synEntry) learn(c morton.Code, max float64) {
	e.max[c].Store(math.Float64bits(max))
}

// filter keeps, in place, the atoms of codes a scan for preds has to
// evaluate: those some predicate's box intersects, unless the atom's
// maximum is known and lies below the threshold of every such predicate.
// An atom of unknown maximum that a predicate reaches is always kept; one
// no predicate reaches (a gap in a batch's bounding box) is not.
func (e *synEntry) filter(g grid.Grid, codes []morton.Code, preds []atomPred) []morton.Code {
	kept := codes[:0]
	for _, c := range codes {
		box := g.AtomBox(c)
		max, known := e.known(c)
		for _, pr := range preds {
			// Not "max ≥ threshold": a NaN threshold prunes nothing, and a
			// +Inf one still admits an atom holding a +Inf norm.
			if !(known && max < pr.threshold) && !pr.box.Intersect(box).Empty() {
				kept = append(kept, c)
				break
			}
		}
	}
	return kept
}
