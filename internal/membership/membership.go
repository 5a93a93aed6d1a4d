// Package membership tracks which database nodes belong to the cluster and
// how healthy each one is, and derives the deterministic k-way replica
// placement of Morton ranges over the serving members.
//
// The table is the cluster's single source of truth for elasticity: nodes
// join (streaming their assigned ranges while the old placement keeps
// serving), leave gracefully, and oscillate between Alive and Suspect as
// the fault-tolerance breakers observe them. Health states never move data
// — placement follows the serving set only, so a flapping node keeps its
// ranges and simply drops to the back of every failover order.
package membership

import (
	"fmt"
	"sort"
	"sync"

	"github.com/turbdb/turbdb/internal/obs"
)

// Membership metrics: the serving-set size, how many members are currently
// suspect, and a version counter that increments on every state change so
// dashboards can spot churn.
var (
	mServing = obs.Default().Gauge("turbdb_membership_serving")
	mSuspect = obs.Default().Gauge("turbdb_membership_suspect")
	mVersion = obs.Default().Gauge("turbdb_membership_version")
)

// State is a member's lifecycle state.
type State int

const (
	// Alive members serve queries and hold their placement ranges.
	Alive State = iota
	// Suspect members are serving but unhealthy (their breaker opened);
	// failover prefers other replicas. Placement is unchanged.
	Suspect
	// Joining members are streaming their assigned ranges and do not serve
	// until activated.
	Joining
	// Leaving members are draining: they still serve (their data is being
	// re-streamed to the survivors) but will be removed.
	Leaving
	// Left members have been removed from the cluster.
	Left
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Joining:
		return "joining"
	case Leaving:
		return "leaving"
	case Left:
		return "left"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Serving reports whether a member in this state answers queries: Alive and
// Suspect members do, and Leaving members keep serving until their data has
// been re-streamed.
func (s State) Serving() bool { return s == Alive || s == Suspect || s == Leaving }

// Member is one row of a membership snapshot.
type Member struct {
	ID    int
	State State
}

// Table is the cluster's membership and health table. Safe for concurrent
// use; all methods take the table's own lock only and no other lock under
// it, so a caller may hold a lock of its own (Mediator.RegisterNode holds
// its topology lock across Join).
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
	var serving, suspect int64
	for _, s := range t.members {
		if s.Serving() {
			serving++
		}
		if s == Suspect {
			suspect++
		}
	}
	mServing.Set(serving)
	mSuspect.Set(suspect)
	mVersion.Set(int64(t.version))
}

// setLocked transitions id to s, bumping the version; no-op when already
// there. Called with t.mu held.
func (t *Table) setLocked(id int, s State) {
	if t.members[id] == s {
		return
	}
	t.members[id] = s
	t.version++
	t.noteLocked()
}

// Join registers a new member in the Joining state. Rejoining a Left member
// restarts it as Joining.
func (t *Table) Join(id int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.members[id]; ok && s != Left {
		return fmt.Errorf("membership: node %d already a member (%v)", id, s)
	}
	t.setLocked(id, Joining)
	return nil
}

// Activate promotes a Joining member to Alive once its ranges are streamed.
func (t *Table) Activate(id int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.members[id]; s != Joining {
		return fmt.Errorf("membership: node %d is %v, not joining", id, s)
	}
	t.setLocked(id, Alive)
	return nil
}

// Leave marks a member as draining; it keeps serving until Remove.
func (t *Table) Leave(id int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.members[id]
	if !ok || s == Left {
		return fmt.Errorf("membership: node %d is not a member", id)
	}
	t.setLocked(id, Leaving)
	return nil
}

// Remove finalizes a leave: the member stops serving.
func (t *Table) Remove(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.setLocked(id, Left)
}

// MarkSuspect records a health failure (an opened breaker) for an Alive
// member. Other states are unchanged — health never interrupts a join or a
// drain.
func (t *Table) MarkSuspect(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.members[id] == Alive {
		t.setLocked(id, Suspect)
	}
}

// MarkAlive records recovery (a re-closed breaker) for a Suspect member.
func (t *Table) MarkAlive(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.members[id] == Suspect {
		t.setLocked(id, Alive)
	}
}

// State returns a member's current state (Left for unknown ids).
func (t *Table) State(id int) State {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.members[id]
	if !ok {
		return Left
	}
	return s
}

// FailoverOrder returns the serving members of owners in failover order:
// Alive before Suspect/Leaving, placement order within each class, and the
// members demoted reports true for behind all the others. A nil demoted
// demotes no one.
func (t *Table) FailoverOrder(owners []int, demoted func(id int) bool) []int {
	var buf [8]int
	ranks := buf[:0] // 0 Alive, 1 Suspect/Leaving, +2 demoted; -1 not serving
	for _, id := range owners {
		st := t.State(id)
		r := -1
		if st.Serving() {
			r = 0
			if st != Alive {
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

// Version returns the state-change counter; it increments on every
// transition, so equal versions imply identical tables.
func (t *Table) Version() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.version
}

// Serving returns the sorted ids of members currently answering queries.
func (t *Table) Serving() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]int, 0, len(t.members))
	for id, s := range t.members {
		if s.Serving() {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// Members returns a sorted snapshot of every member, including Left ones.
func (t *Table) Members() []Member {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Member, 0, len(t.members))
	for id, s := range t.members {
		out = append(out, Member{ID: id, State: s})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
