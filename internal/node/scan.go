package node

import (
	"context"
	"errors"
	"fmt"

	"github.com/turbdb/turbdb/internal/cache"
	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/obs"
	"github.com/turbdb/turbdb/internal/sim"
	"github.com/turbdb/turbdb/internal/stencil"
)

// scanKey is what every member of one scan shares: the data it reads.
type scanKey struct {
	dataset, field string
	order, step    int
	scan           []morton.Range // replica routing; empty is the node's primary range
}

// member is one query a node scan answers: what a threshold, a PDF and a
// top-k differ in. Node.scan does everything else once for all of them.
type member interface {
	// pred is the member's box and the least norm it wants; −Inf wants
	// every point, which the synopsis never prunes.
	pred() atomPred
	// consumer returns one worker's row consumer. Rows come from the
	// bounding box of every member, so it keeps to its own box; it returns
	// false once the member needs no more rows.
	consumer() rowConsumer
	// finish completes the answer, from the cache or the pass, and returns
	// the member's own failure, which fails no other member.
	finish() error
}

// cachedMember is a member whose answers the node's cache keeps.
type cachedMember interface {
	member
	// lookup answers the member from the entry under key; false is a miss.
	lookup(p *sim.Proc, c *cache.Cache, dataset, key string, step int) (bool, error)
	// store records the finished answer under key.
	store(p *sim.Proc, c *cache.Cache, dataset, key string, step int) error
}

// scanned is what Node.scan reports of one member, whatever its kind.
type scanned struct {
	bd                 Breakdown
	fromCache          bool
	shared, scansSaved int
	err                error // from finish
}

// rowSpan returns the part [lo, hi) of a row of n norms at p that lies in
// box; it is empty (hi ≤ lo) for a row outside it.
func rowSpan(box grid.Box, p grid.Point, n int) (lo, hi int) {
	if p.Y < box.Lo.Y || p.Y >= box.Hi.Y || p.Z < box.Lo.Z || p.Z >= box.Hi.Z {
		return 0, 0
	}
	return max(box.Lo.X-p.X, 0), min(box.Hi.X-p.X, n)
}

// scan is the node's one query procedure, the paper's Algorithm 1 for
// members of any kind over the same (dataset, field, order, step, scan):
//
//  1. interrogate the local cache for every cached member: a hit is
//     answered from it and takes no part in the scan;
//  2. otherwise read the raw data (plus halo) of the bounding box of the
//     remaining members in ONE evalPhases pass, derive the field and hand
//     every row to each member's consumer — per-point norms do not depend
//     on the enclosing scan box (the row kernels are row-start independent,
//     proven bit-for-bit in the kernel differential tests), so each member
//     gets exactly the answer a scan of its own box would give; a lone
//     top-k on a node with a synopsis walks its box in at most two rounds
//     instead (topKWalk);
//  3. store each member's answer in the cache.
//
// It returns each member's report and, for more than one member, how many
// atoms the shared pass evaluated. Only problems of the whole call — bad
// field, I/O failure, cancellation — are its error. ctx bounds the
// evaluation: cancellation or an expired deadline aborts both the I/O and
// compute phases between atoms.
func (n *Node) scan(ctx context.Context, p *sim.Proc, k scanKey, ms []member) ([]scanned, int, error) {
	if k.dataset != n.dataset {
		return nil, 0, faulttol.Permanentf("node: serves dataset %q, not %q", n.dataset, k.dataset)
	}
	f, err := n.resolveField(k.field)
	if err != nil {
		return nil, 0, err
	}
	hw, err := f.HalfWidth(k.order)
	if err != nil {
		return nil, 0, err
	}
	st, err := stencil.Get(k.order)
	if err != nil {
		return nil, 0, err
	}

	start := n.exec.Now()
	ckey := cacheFieldKey(k.field, k.order) + scanCacheSuffix(k.scan)
	out := make([]scanned, len(ms))
	// Algorithm 1, lines 4–28: cache interrogation; misses join the pass.
	var live []int
	for i, m := range ms {
		if cm, ok := m.(cachedMember); ok && n.cache != nil {
			t0 := n.exec.Now()
			_, sp := obs.StartSpan(ctx, "cache_lookup")
			hit, err := cm.lookup(p, n.cache, k.dataset, ckey, k.step)
			sp.End()
			out[i].bd.CacheLookup = n.exec.Now() - t0
			mCacheLookup.Observe(out[i].bd.CacheLookup.Seconds())
			if err != nil {
				return nil, 0, err
			}
			if hit {
				out[i].fromCache, out[i].err = true, m.finish()
				out[i].bd.Total = n.exec.Now() - start
				continue
			}
		}
		live = append(live, i)
	}
	if len(live) == 0 {
		return out, 0, nil
	}

	// Algorithm 1, lines 29–36: one pass over the bounding box of the
	// members the cache missed.
	var ub grid.Box
	preds := make([]atomPred, len(live))
	for j, i := range live {
		preds[j] = ms[i].pred()
		ub = ub.Union(preds[j].box)
	}
	syn := n.openSynopsis(f, st, k.step)
	// The pass's atoms are planned once, for the sharing accounting and the
	// pass alike; a lone top-k on a synopsis plans its own rounds.
	tk, walk := ms[live[0]].(*topKMember)
	walk = walk && len(live) == 1 && syn != nil
	var codes []morton.Code
	pruned := 0
	if !walk || len(ms) > 1 {
		if codes, pruned, err = n.scanSet(syn, ub, k.scan, preds); err != nil {
			return nil, 0, err
		}
	}
	atomsScanned := 0
	if len(ms) > 1 {
		// Scan-cost accounting: what each member would have scanned alone, to
		// set against the one union pass they share. Both sides count the
		// atoms left after the synopsis has pruned, so the difference is what
		// sharing saved and not what pruning did. The union pass is charged
		// to the first member; everyone else saves their whole solo scan.
		for j, i := range live {
			solo, _, err := n.scanSet(syn, preds[j].box, k.scan, preds[j:j+1])
			if err != nil {
				return nil, 0, err
			}
			out[i].shared, out[i].scansSaved = len(live), len(solo)
		}
		atomsScanned = len(codes)
		out[live[0]].scansSaved = max(out[live[0]].scansSaved-atomsScanned, 0)
	}
	// evalPhases asks for the workers' consumers concurrently: build them
	// all first.
	ps := &pass{
		f: f, st: st, step: k.step, qbox: ub, hw: hw, floor: lowestThreshold(preds),
		syn: syn, pool: newBufferPool(), rows: make([]rowConsumer, n.Processes()),
	}
	for w := range ps.rows {
		cs := make([]rowConsumer, len(live))
		for j, i := range live {
			cs[j] = ms[i].consumer()
		}
		ps.rows[w] = func(p grid.Point, norms []float64) bool {
			more := false
			for _, c := range cs {
				more = c(p, norms) || more
			}
			return more
		}
	}
	var bd Breakdown
	if walk {
		bd, err = n.topKWalk(ctx, p, ps, k.scan, tk)
	} else {
		bd, err = n.evalPhases(ctx, p, ps, codes, pruned)
		bd.AtomsPruned = pruned
	}
	if err != nil {
		return nil, 0, err
	}
	mAtomsPruned.Add(int64(bd.AtomsPruned))

	for _, i := range live {
		o := &out[i]
		o.bd.Add(bd)
		o.err = ms[i].finish()
		// Algorithm 1, line 37: update the cache. Caching is best-effort: a
		// result too large for the cache is simply served uncached.
		if cm, ok := ms[i].(cachedMember); ok && n.cache != nil && o.err == nil {
			t0 := n.exec.Now()
			_, sp := obs.StartSpan(ctx, "cache_update")
			err := cm.store(p, n.cache, k.dataset, ckey, k.step)
			sp.End()
			if err != nil && !errors.Is(err, cache.ErrEntryTooLarge) {
				return nil, 0, fmt.Errorf("node: cache update: %w", err)
			}
			o.bd.CacheUpdate = n.exec.Now() - t0
			mCacheUpdate.Observe(o.bd.CacheUpdate.Seconds())
		}
		o.bd.Total = n.exec.Now() - start
	}
	return out, atomsScanned, nil
}

// scanOne is scan for a lone member, whose failure is the call's.
func (n *Node) scanOne(ctx context.Context, p *sim.Proc, k scanKey, m member) (scanned, error) {
	out, _, err := n.scan(ctx, p, k, []member{m})
	if err != nil {
		return scanned{}, err
	}
	return out[0], out[0].err
}
