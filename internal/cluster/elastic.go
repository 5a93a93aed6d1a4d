package cluster

// Elastic membership: nodes join and leave a cluster at runtime, at any
// replication factor k. A rebalance computes the next placement, streams
// every atom a node is newly responsible for from the holders under the
// old placement, and only then flips the routing table — queries in flight
// keep using the placement they started on, and data is never deleted
// (atoms are immutable after ingest, so a stale copy is valid forever).

import (
	"context"
	"fmt"
	"sort"

	"github.com/turbdb/turbdb/internal/membership"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/sim"
)

// Join adds a new node to the cluster and returns its id. The
// node is built, registered as Joining (it takes no query traffic yet),
// back-filled with every atom the next placement assigns it, and only then
// activated and routed to. In simulation mode p must be the calling DES
// process; in real mode p is nil. ctx bounds the streaming.
func (c *Cluster) Join(ctx context.Context, p *sim.Proc) (int, error) {
	id := len(c.nodes)
	table := c.Membership()
	if err := table.Join(id); err != nil {
		return 0, err
	}
	members := append(table.Serving(), id)
	newPl, err := membership.Place(c.gen.Grid().AtomRange(), members, c.cfg.Replication)
	if err != nil {
		return 0, err
	}
	oldPl := c.Placement()

	nd, link, err := c.buildNode(id, primaryOf(newPl, id))
	if err != nil {
		return 0, err
	}
	nd.SetPeers(c.haloRouter(id))

	// Back-fill the whole cluster for the new placement: the joiner gets
	// everything it will hold, and surviving nodes pick up the ranges the
	// re-split shifted onto them. Sources are the old placement's holders,
	// which all still serve.
	for _, m := range members {
		if err := c.syncNode(ctx, p, m, newPl, oldPl); err != nil {
			return 0, err
		}
	}

	if err := c.Mediator.RegisterNode(ctx, id, nd, link); err != nil {
		return 0, err
	}
	if err := table.Activate(id); err != nil {
		return 0, err
	}
	return id, c.Mediator.UpdateTopology(newPl)
}

// Leave drains node id out of the cluster: the node is marked
// Leaving (it still serves reads and acts as a streaming source), the next
// placement excludes it, survivors are back-filled, the routing table
// flips, and the node is removed from membership. Its store is kept —
// atoms are immutable, so the copies are simply unused.
func (c *Cluster) Leave(ctx context.Context, p *sim.Proc, id int) error {
	table := c.Membership()
	if err := table.Leave(id); err != nil {
		return err
	}
	var members []int
	for _, m := range table.Serving() {
		if m != id {
			members = append(members, m)
		}
	}
	if len(members) == 0 {
		return fmt.Errorf("cluster: node %d is the last member", id)
	}
	newPl, err := membership.Place(c.gen.Grid().AtomRange(), members, c.cfg.Replication)
	if err != nil {
		return err
	}
	oldPl := c.Placement()
	for _, m := range members {
		if err := c.syncNode(ctx, p, m, newPl, oldPl); err != nil {
			return err
		}
	}
	if err := c.Mediator.UpdateTopology(newPl); err != nil {
		return err
	}
	table.Remove(id)
	return nil
}

// primaryOf is PrimaryOf tolerating the not-a-member case (empty range).
func primaryOf(pl membership.Placement, id int) morton.Range {
	r, _ := pl.PrimaryOf(id)
	return r
}

// syncNode brings node id's store up to the given placement: every range
// the placement assigns it is adopted, and atoms it does not yet hold are
// streamed from the old placement's serving holders (charging the source
// disk and the inter-node link in simulation mode). Streaming is
// idempotent — already-held atoms are skipped — so a re-run after a
// partial failure completes the remainder.
func (c *Cluster) syncNode(ctx context.Context, p *sim.Proc, id int, pl, old membership.Placement) error {
	nd := c.nodes[id]
	st := nd.Store()
	// Missing is decided by data presence, not range ownership: a joiner's
	// freshly built store owns its primary range with nothing in it yet.
	// Ingest and streaming populate every (field, step) together, so one
	// probe per code suffices.
	probe := c.gen.RawFields()[0].Name
	var missing []morton.Code
	for _, r := range pl.RangesOf(id) {
		for code := r.Lo; code < r.Hi; code++ {
			if !st.HasAtom(probe, 0, code) {
				missing = append(missing, code)
			}
		}
	}
	for _, r := range pl.RangesOf(id) {
		st.AdoptRange(r)
	}
	if len(missing) == 0 {
		return nil
	}
	// Group the back-fill by source: the first serving holder under the
	// old placement.
	bySrc := make(map[int][]morton.Code)
	for _, code := range missing {
		src := -1
		for _, h := range old.OwnersOf(code) {
			if h != id && c.Membership().State(h).Serving() {
				src = h
				break
			}
		}
		if src == -1 {
			return fmt.Errorf("cluster: no live holder to stream atom %v to node %d", code, id)
		}
		bySrc[src] = append(bySrc[src], code)
	}
	// Deterministic source order keeps simulation runs reproducible.
	srcs := make([]int, 0, len(bySrc))
	for src := range bySrc {
		srcs = append(srcs, src)
	}
	sort.Ints(srcs)
	for _, rf := range c.gen.RawFields() {
		for step := 0; step < c.gen.Steps(); step++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			for _, src := range srcs {
				codes := bySrc[src]
				blobs, err := c.nodes[src].Store().ReadAtoms(p, rf.Name, step, codes)
				if err != nil {
					return fmt.Errorf("cluster: streaming %q step %d from node %d: %w", rf.Name, step, src, err)
				}
				total := 0
				for _, b := range blobs {
					total += len(b)
				}
				if c.Kernel != nil && p != nil {
					c.peerLinks[src].Transfer(p, total)
				}
				for code, b := range blobs {
					if err := st.Put(rf.Name, step, code, b); err != nil {
						return fmt.Errorf("cluster: adopting atom %v on node %d: %w", code, id, err)
					}
				}
			}
		}
	}
	return nil
}
