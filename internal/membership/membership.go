// Package membership holds the cluster's fixed member set and how healthy
// each member is, and derives the deterministic k-way replica placement of
// Morton ranges over the members.
//
// The member set is fixed when the table is made: a cluster's nodes are the
// ones it starts with, as in the paper's system, whose Morton partition is
// set at ingest. Members move between Alive and Suspect as the
// fault-tolerance breakers observe them. Health never moves data — a
// flapping node keeps its ranges and only drops to the back of every
// failover order.
package membership

import (
	"fmt"
	"sync"

	"github.com/turbdb/turbdb/internal/obs"
)

// Membership metrics: the member count, how many members are currently
// suspect, and a version counter that increments on every state change so
// dashboards can spot churn.
var (
	mServing = obs.Default().Gauge("turbdb_membership_serving")
	mSuspect = obs.Default().Gauge("turbdb_membership_suspect")
	mVersion = obs.Default().Gauge("turbdb_membership_version")
)

// State is a member's health.
type State int

const (
	// Alive members serve queries and hold their placement ranges.
	Alive State = iota
	// Suspect members are serving but unhealthy (their breaker opened);
	// failover prefers other replicas. Placement is unchanged.
	Suspect
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Table is the cluster's member set and health table. Safe for concurrent
// use; all methods take the table's own lock only and no other lock under
// it.
type Table struct {
	mu        sync.Mutex
	members   map[int]State // guarded by mu
	version   uint64        // guarded by mu
	published bool          // guarded by mu; the gauges report this table
}

// NewTable builds a table with the given members, all Alive.
func NewTable(ids ...int) *Table {
	t := &Table{}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.members = make(map[int]State, len(ids))
	for _, id := range ids {
		t.members[id] = Alive
	}
	t.version = 1
	return t
}

// Publish makes t the table the process-wide membership gauges
// (turbdb_membership_{serving,suspect,version}) report, from now on. Only
// the cluster's own table — the mediator's — is published; a table a
// component keeps for its own routing leaves the gauges alone.
func (t *Table) Publish() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.published = true
	t.noteLocked()
}

// noteLocked refreshes the membership gauges from the current state of a
// published table. Called with t.mu held (gauges are atomic, not locked).
func (t *Table) noteLocked() {
	if !t.published {
		return
	}
	var suspect int64
	for _, s := range t.members {
		if s == Suspect {
			suspect++
		}
	}
	mServing.Set(int64(len(t.members)))
	mSuspect.Set(suspect)
	mVersion.Set(int64(t.version))
}

// setLocked moves member id from one health state to the other, bumping
// the version; no-op unless id is in state from. Called with t.mu held.
func (t *Table) setLocked(id int, from, to State) {
	if s, ok := t.members[id]; !ok || s != from {
		return
	}
	t.members[id] = to
	t.version++
	t.noteLocked()
}

// MarkSuspect records a health failure (an opened breaker) for an Alive
// member.
func (t *Table) MarkSuspect(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.setLocked(id, Alive, Suspect)
}

// MarkAlive records recovery (a re-closed breaker) for a Suspect member.
func (t *Table) MarkAlive(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.setLocked(id, Suspect, Alive)
}

// State returns member id's health; ok is false when id is not a member.
func (t *Table) State(id int) (s State, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok = t.members[id]
	return s, ok
}

// FailoverOrder returns the members among owners in failover order: Alive
// before Suspect, placement order within each class, and the members
// demoted reports true for behind all the others. An owner that is not a
// member is left out. A nil demoted demotes no one.
func (t *Table) FailoverOrder(owners []int, demoted func(id int) bool) []int {
	var buf [8]int
	ranks := buf[:0] // 0 Alive, 1 Suspect, +2 demoted; -1 not a member
	for _, id := range owners {
		st, ok := t.State(id)
		r := -1
		if ok {
			r = 0
			if st == Suspect {
				r = 1
			}
			if demoted != nil && demoted(id) {
				r += 2
			}
		}
		ranks = append(ranks, r)
	}
	out := make([]int, 0, len(owners))
	for want := 0; want < 4; want++ {
		for i, r := range ranks {
			if r == want {
				out = append(out, owners[i])
			}
		}
	}
	return out
}
