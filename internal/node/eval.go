package node

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/field"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/obs"
	"github.com/turbdb/turbdb/internal/sim"
	"github.com/turbdb/turbdb/internal/stencil"
)

// Breakdown records per-phase durations of one node-local query evaluation,
// in the node's time base (virtual time in simulation mode, wall-clock in
// real mode). These are the per-node inputs to the paper's Fig. 8/9
// stacked-bar breakdowns.
type Breakdown struct {
	CacheLookup time.Duration
	IO          time.Duration
	Compute     time.Duration
	CacheUpdate time.Duration
	Total       time.Duration

	// AtomsRead counts local atom records read (including redundant halo
	// re-reads across workers); HaloAtoms counts atoms fetched from peers;
	// PointsExamined counts kernel evaluations.
	AtomsRead      int
	HaloAtoms      int
	PointsExamined int
	// AtomsSkipped counts shard atoms left unevaluated because their halo
	// band was unreachable (partial-halo degradation). Non-zero means the
	// result is partial and must not be cached.
	AtomsSkipped int
	// AtomsPruned counts atoms of the query box a threshold scan left out —
	// not read, not evaluated, not in PointsExamined — because the node's
	// max-norm synopsis proves none of their points can qualify. The answer
	// is complete all the same.
	AtomsPruned int
}

// Add accumulates another breakdown (used by the mediator for summaries).
func (b *Breakdown) Add(o Breakdown) {
	b.CacheLookup += o.CacheLookup
	b.IO += o.IO
	b.Compute += o.Compute
	b.CacheUpdate += o.CacheUpdate
	b.Total += o.Total
	b.AtomsRead += o.AtomsRead
	b.HaloAtoms += o.HaloAtoms
	b.PointsExamined += o.PointsExamined
	b.AtomsSkipped += o.AtomsSkipped
	b.AtomsPruned += o.AtomsPruned
}

// Max keeps the element-wise maximum of phase durations (used to form the
// cluster-level critical path across nodes).
func (b *Breakdown) Max(o Breakdown) {
	if o.CacheLookup > b.CacheLookup {
		b.CacheLookup = o.CacheLookup
	}
	if o.IO > b.IO {
		b.IO = o.IO
	}
	if o.Compute > b.Compute {
		b.Compute = o.Compute
	}
	if o.CacheUpdate > b.CacheUpdate {
		b.CacheUpdate = o.CacheUpdate
	}
	if o.Total > b.Total {
		b.Total = o.Total
	}
	b.AtomsRead += o.AtomsRead
	b.HaloAtoms += o.HaloAtoms
	b.PointsExamined += o.PointsExamined
	b.AtomsSkipped += o.AtomsSkipped
	b.AtomsPruned += o.AtomsPruned
}

// slabSide is the edge, in atoms, of the largest slab the scan assembles at
// once: 4×4×4 atoms are 64 consecutive Morton codes, a 32³ region of
// interest inside a (32+2hw)³ halo-extended block — 1.42× the useful points
// at order 4 where a lone atom's (8+2hw)³ is 3.4× — and rows of 32 points
// for the kernels. A constant, not a knob: BenchmarkThresholdScan reads
// 53 / 39 / 31 ns per vorticity point at sides 1 / 2 / 4 (93 / 51 / 38 on
// the same host before the row kernels were fused into one pass; the
// ordering did not move), and side 8 would hold 3.8 MB per raw field and
// worker to reach 1.2×.
const slabSide = 4

// rowConsumer receives the norms of one x-run of grid points: norms[i]
// belongs to (p.X+i, p.Y, p.Z). Rows arrive in no particular order, so a
// consumer's final answer must not depend on it; it allocates only to grow
// its result, and returns false to stop the scan.
type rowConsumer func(p grid.Point, norms []float64) bool

// slabAt returns the largest aligned slab starting at shard[0], as its edge
// in atoms and its atom count: slabSide where the next side³ codes of the
// Morton-sorted shard are one aligned cube, halving down to a lone atom
// where the shard edge, the scan ranges or the query box cut the cube.
func slabAt(shard []morton.Code) (side, count int) {
	for side = slabSide; side > 1; side /= 2 {
		count = side * side * side
		if uint64(shard[0])%uint64(count) == 0 && count <= len(shard) &&
			shard[count-1] == shard[0]+morton.Code(count-1) {
			return side, count
		}
	}
	return 1, 1
}

// slabROI is the part of the slab of the given edge at atom first that the
// query box selects. Both the I/O phase's halo cover and the compute
// phase's assembly box derive from it (expanded by the kernel half-width),
// so they cannot disagree on a box that clips its atoms.
func slabROI(g grid.Grid, first morton.Code, side int, qbox grid.Box) grid.Box {
	o, w := g.AtomOrigin(first), side*g.AtomSide
	return grid.Box{Lo: o, Hi: o.Add(w, w, w)}.Intersect(qbox)
}

// workerData is the outcome of one worker's I/O phase: per raw input field
// (in Field.Raws order), the blob of every atom the shard's slabs touch.
type workerData struct {
	blobs     []map[morton.Code][]byte
	atomsRead int
	haloAtoms int
	err       error
}

// bufferPool tracks which local atoms have already been charged to disk
// within one query evaluation on one node. Later readers of the same atom
// are served from the database buffer pool without disk time: the node's
// RAM comfortably holds one query's working set (the paper's nodes pair
// 24 GB of memory with ~3 GB shards and credit "a larger buffer pool, which
// reduces the I/O time"). The *redundant work* across workers still costs
// deserialization and, for remote halo atoms, network transfer time.
type poolKey struct {
	field string
	code  morton.Code
}

type bufferPool struct {
	//turbdb:lockrank node.bufpool 60
	mu   sync.Mutex
	seen map[poolKey]bool // guarded by mu
}

func newBufferPool() *bufferPool {
	return &bufferPool{seen: make(map[poolKey]bool)}
}

// admit splits codes into cold (first touch, pays disk) and warm.
func (b *bufferPool) admit(fieldName string, codes []morton.Code) (cold, warm []morton.Code) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, c := range codes {
		k := poolKey{fieldName, c}
		if b.seen[k] {
			warm = append(warm, c)
		} else {
			b.seen[k] = true
			cold = append(cold, c)
		}
	}
	return cold, warm
}

// gather is the I/O phase of one worker: for every raw input field, fetch
// the blob of every atom the shard's slabs touch — each slab's region of
// interest plus a halo band of one kernel half-width, with atoms held by
// other nodes fetched from peers. Nothing is decoded here; the compute
// phase decodes the rows it needs straight into its slab blocks.
func (n *Node) gather(ctx context.Context, wp *sim.Proc, rawFields []derived.RawInput, step int, shard []morton.Code, qbox grid.Box, hw int, pool *bufferPool) workerData {
	g := n.store.Grid()
	var needed []morton.Code
	for rest := shard; len(rest) > 0; {
		side, count := slabAt(rest)
		g.ForEachTile(slabROI(g, rest[0], side, qbox).Expand(hw), func(_ grid.Box, c morton.Code) bool {
			needed = append(needed, c)
			return true
		})
		rest = rest[count:]
	}
	slices.Sort(needed)
	needed = slices.Compact(needed) // neighboring slabs share halo atoms

	var out workerData
	for _, rf := range rawFields {
		err := ctx.Err()
		if err == nil {
			err = n.gatherField(ctx, wp, rf, step, needed, pool, &out)
		}
		if err != nil {
			return workerData{err: err}
		}
	}
	return out
}

// gatherField is gather for one raw field over the sorted atom set needed;
// it appends the field's blobs to out and adds its read counts.
func (n *Node) gatherField(ctx context.Context, wp *sim.Proc, rf derived.RawInput, step int, needed []morton.Code, pool *bufferPool, out *workerData) error {
	rawField := rf.Name
	// Replica ranges count as local: a halo atom this node also holds as a
	// replica is served from its own store instead of a peer fetch. The
	// data-presence check matters mid-rebalance — an adopted range whose
	// atoms are still streaming in is fetched from a peer, not read from
	// the (empty) local store.
	var local, remote []morton.Code
	for _, c := range needed {
		if n.store.Owns(c) && n.store.HasAtom(rawField, step, c) {
			local = append(local, c)
		} else {
			remote = append(remote, c)
		}
	}

	if len(remote) > 0 && n.peers == nil {
		return faulttol.Permanentf("node %d: %d halo atoms not owned and no peer fetcher configured", n.id, len(remote))
	}
	// Atoms another worker already pulled in this query come from the
	// buffer pool: local ones skip the disk charge, remote ones skip the
	// network transfer (the node fetched them once and holds the pages).
	cold, warm := pool.admit(rawField, local)
	remoteCold, remoteWarm := pool.admit(rawField, remote)

	// Disk reads and halo fetches proceed concurrently, as the production
	// system's asynchronous requests to adjacent nodes do.
	var blobs, warmBlobs, coldRemote, warmRemote map[morton.Code][]byte
	var localErr, warmErr, remoteErr error
	n.exec.Fork(wp, 2, func(i int, fp *sim.Proc) {
		if i == 0 {
			blobs, localErr = n.store.ReadAtoms(fp, rawField, step, cold)
			if localErr == nil {
				warmBlobs, warmErr = n.store.ReadAtoms(nil, rawField, step, warm)
			}
		} else if len(remote) > 0 {
			_, hsp := obs.StartSpan(ctx, "halo_fetch")
			defer hsp.End()
			if len(remoteCold) > 0 {
				coldRemote, remoteErr = n.peers.FetchAtoms(ctx, fp, rawField, step, remoteCold)
			}
			if remoteErr == nil && len(remoteWarm) > 0 {
				warmRemote, remoteErr = n.peers.FetchAtoms(ctx, nil, rawField, step, remoteWarm)
			}
		}
	})
	if localErr != nil {
		return localErr
	}
	if warmErr != nil {
		return warmErr
	}
	if remoteErr != nil {
		// Partial-halo degradation: with unreachable peers, proceed with
		// whatever halo atoms did arrive — the compute phase skips (and
		// counts) exactly the shard atoms whose band stayed incomplete.
		// Cancellation is the caller giving up, never a degradation.
		if !n.partialHalo || ctx.Err() != nil {
			return fmt.Errorf("node %d: halo fetch: %w", n.id, remoteErr)
		}
	}
	for _, more := range []map[morton.Code][]byte{warmBlobs, coldRemote, warmRemote} {
		for c, b := range more {
			blobs[c] = b
		}
	}
	// Blobs cross a trust boundary (disk, peers); the decode kernel does not
	// re-check their length per slab.
	want := field.ByteSize(n.store.Grid().AtomBox(0), rf.NComp)
	for c, b := range blobs {
		if len(b) != want {
			return faulttol.Permanentf("node %d: atom %v of %q is %d bytes, want %d", n.id, c, rawField, len(b), want)
		}
	}
	out.blobs = append(out.blobs, blobs)
	out.atomsRead += len(cold)
	out.haloAtoms += len(remoteCold)
	return nil
}

// atomMax is what a scan learned about one atom it evaluated whole: the
// largest norm of its points.
type atomMax struct {
	code morton.Code
	max  float64
}

// shardResult is the outcome of one worker's compute phase. learned lists
// the atoms the synopsis may record: every point evaluated — not clipped by
// the query box, not skipped for a halo hole, not in the slab the consumer
// stopped in.
type shardResult struct {
	examined, skipped int
	learned           []atomMax
}

// slabScan is the compute phase of one worker: it walks the worker's shard
// slab by slab, decodes each slab's blobs into one pooled halo-extended
// block per raw field, evaluates the derived field's norm over whole rows
// of the slab's region of interest, folds the norms into per-atom maxima
// and hands the consumer each row whose maximum reaches floor. Its buffers
// are sized once per worker, so the walk performs zero heap allocations per
// slab in steady state.
type slabScan struct {
	n        *Node
	wp       *sim.Proc
	g        grid.Grid
	f        *derived.Field
	st       stencil.Stencil
	qbox     grid.Box
	hw       int
	perPoint time.Duration
	blobs    []map[morton.Code][]byte
	slabs    []*field.Block // one per raw field, re-shaped for every slab
	consume  rowConsumer
	floor    float64 // no consumer wants a point below it

	norms, vals, scratch []float64

	// maxes[i] is the running maximum, as an orderKey, of atom codes[0]+i of
	// the slab being scanned; spread[o] is the Morton x-interleave of
	// o/AtomSide, so the atom under offset (ox, oy, oz) from the slab's
	// origin is spread[ox] | spread[oy]<<1 | spread[oz]<<2.
	maxes  [slabSide * slabSide * slabSide]int64
	spread []int

	shardResult
	stopped bool // the consumer asked to stop
}

// scanShard runs the compute phase of one worker over its Morton-sorted
// shard. floor is a lower bound of what consume looks for: rows whose
// largest norm is below it are folded into the atoms' maxima and not handed
// over (−Inf hands over every row).
func (n *Node) scanShard(ctx context.Context, wp *sim.Proc, f *derived.Field, st stencil.Stencil, shard []morton.Code, blobs []map[morton.Code][]byte, qbox grid.Box, hw int, floor float64, consume rowConsumer) (shardResult, error) {
	g := n.store.Grid()
	rowW := slabSide * g.AtomSide
	s := slabScan{
		n: n, wp: wp, g: g, f: f, st: st, qbox: qbox, hw: hw,
		perPoint: n.costs.Cost(f.Name), blobs: blobs, consume: consume, floor: floor,
		slabs:   make([]*field.Block, len(f.Raws)),
		norms:   make([]float64, rowW),
		vals:    make([]float64, rowW*f.OutComp),
		scratch: make([]float64, rowW*f.RowScratchPerPoint),
		spread:  make([]int, rowW),
	}
	s.learned = make([]atomMax, 0, len(shard))
	for o := range s.spread {
		s.spread[o] = int(morton.Encode(uint32(o/g.AtomSide), 0, 0))
	}
	for i := range s.slabs {
		s.slabs[i] = n.getSlab()
	}
	defer func() {
		for _, bl := range s.slabs {
			mPoolPuts.Inc()
			n.slabPool.Put(bl)
		}
	}()
	var err error
	for len(shard) > 0 && err == nil && !s.stopped {
		side, count := slabAt(shard)
		if err = ctx.Err(); err == nil {
			err = s.scanSlab(shard[:count], side)
		}
		shard = shard[count:]
	}
	return s.shardResult, err
}

// getSlab draws a slab block from the node's pool; its shape and contents
// are undefined until assemble resets and fills it.
func (n *Node) getSlab() *field.Block {
	mPoolGets.Inc()
	if bl, ok := n.slabPool.Get().(*field.Block); ok {
		return bl
	}
	mPoolNews.Inc()
	return &field.Block{}
}

// scanSlab evaluates one aligned slab: codes are its side³ atoms. A lone
// atom is a slab of side 1 through the same code.
func (s *slabScan) scanSlab(codes []morton.Code, side int) error {
	roi := slabROI(s.g, codes[0], side, s.qbox)
	if !s.assemble(roi) {
		// The halo band stayed incomplete after a degraded peer fetch. A
		// slab with a hole degrades to its eight half-size slabs and in the
		// end to its atoms, so exactly the atoms whose own band touches a
		// missing blob are skipped — not the query, and not the slab.
		switch {
		case !s.n.partialHalo:
			return faulttol.Permanentf("node: atom missing during assembly of %v", roi.Expand(s.hw))
		case side == 1:
			s.skipped++
		default:
			for sub := len(codes) / 8; len(codes) > 0 && !s.stopped; codes = codes[sub:] {
				if err := s.scanSlab(codes[:sub], side/2); err != nil {
					return err
				}
			}
		}
		return nil
	}
	// Simulated CPU time keeps its per-atom grain, so virtual-time results
	// do not depend on how atoms are grouped into slabs.
	for _, c := range codes {
		s.n.exec.ChargeCompute(s.wp, s.perPoint*time.Duration(s.g.AtomBox(c).Intersect(s.qbox).NumPoints()))
	}
	s.examined += roi.NumPoints()
	least := orderKey(math.Inf(-1))
	for i := range codes {
		s.maxes[i] = least
	}
	if s.stopped = !s.rows(roi, s.g.AtomOrigin(codes[0])); s.stopped {
		return nil
	}
	for i, c := range codes {
		if s.qbox.ContainsBox(s.g.AtomBox(c)) {
			s.learned = append(s.learned, atomMax{c, normOf(s.maxes[i])})
		}
	}
	return nil
}

// assemble decodes the blobs covering roi and its halo band — the atoms
// under roi.Expand(hw), periodically wrapped — into the slab block of every
// raw field: each tile's rows go straight from its float32 blob to their
// place in the block. It reports false when a blob is missing.
func (s *slabScan) assemble(roi grid.Box) bool {
	ext := roi.Expand(s.hw)
	for i, rf := range s.f.Raws {
		bl, blobs := s.slabs[i], s.blobs[i]
		bl.Reset(ext, rf.NComp)
		complete := s.g.ForEachTile(ext, func(tile grid.Box, c morton.Code) bool {
			blob, ok := blobs[c]
			if ok {
				bl.DecodeFrom(blob, tile)
			}
			return ok
		})
		if !complete {
			return false
		}
	}
	return true
}

// orderKey maps a norm to an integer that orders as norms do (−0 below +0,
// a NaN beyond the infinity of its sign) and normOf maps it back. The fold
// keeps its maxima as keys because an integer maximum compiles to a
// conditional move, where the float one is a branch the data decides — one
// misprediction per few points of a turbulent row. A maximum that comes out
// NaN compares below no threshold, so its atom is never pruned.
//
//turbdb:rowkernel
func orderKey(v float64) int64 { return flipNegative(int64(math.Float64bits(v))) }

func normOf(k int64) float64 { return math.Float64frombits(uint64(flipNegative(k))) }

// flipNegative inverts the magnitude bits of a negative value — its own
// inverse — which turns sign-magnitude order into two's-complement order.
//
//turbdb:rowkernel
func flipNegative(k int64) int64 { return k ^ int64(uint64(k>>63)>>1) }

// rows evaluates the norm over every x-run of roi — a region of the slab
// at origin — in one NormRow call each, folds the run into the maxima of
// the atoms it crosses and feeds the consumer the runs that hold a norm of
// at least floor: the fold's one compare per point is the only one a run
// with no candidate pays. false means the consumer stopped the scan.
//
//turbdb:rowkernel
func (s *slabScan) rows(roi grid.Box, origin grid.Point) bool {
	nx := roi.Hi.X - roi.Lo.X
	norms := s.norms[:nx]
	x0 := roi.Lo.X - origin.X
	first := s.g.AtomSide - x0%s.g.AtomSide // a clipped run starts inside its first atom
	floor := orderKey(s.floor)
	p := roi.Lo
	for p.Z = roi.Lo.Z; p.Z < roi.Hi.Z; p.Z++ {
		iz := s.spread[p.Z-origin.Z] << 2
		for p.Y = roi.Lo.Y; p.Y < roi.Hi.Y; p.Y++ {
			s.f.NormRow(s.st, s.slabs, p, nx, s.g.Dx, norms, s.vals, s.scratch)
			if s.fold(norms, x0, first, iz|s.spread[p.Y-origin.Y]<<1) >= floor && !s.consume(p, norms) {
				return false
			}
		}
	}
	return true
}

// fold raises the maxima of the atoms under one x-run of norms, segment by
// segment, and returns the run's own maximum; the run starts x0 points into
// the slab, first points before the end of an atom, in the atom row whose y
// and z index bits are iyz.
//
//turbdb:rowkernel
func (s *slabScan) fold(norms []float64, x0, first, iyz int) int64 {
	least := orderKey(math.Inf(-1))
	rowMax := least
	for hi := min(first, len(norms)); len(norms) > 0; hi = min(s.g.AtomSide, len(norms)) {
		// Norms are almost always non-negative, and the bit patterns of
		// non-negative floats are their own order keys: take the maximum
		// of the raw bits, and redo the segment through orderKey only if
		// a sign bit (a negative norm, −0, a NaN of that sign) won.
		var bits uint64
		for _, v := range norms[:hi] {
			bits = max(bits, math.Float64bits(v))
		}
		m := int64(bits)
		if m < 0 {
			m = least
			for _, v := range norms[:hi] {
				m = max(m, orderKey(v))
			}
		}
		i := iyz | s.spread[x0]
		s.maxes[i] = max(s.maxes[i], m)
		rowMax = max(rowMax, m)
		norms, x0 = norms[hi:], x0+hi
	}
	return rowMax
}

// openSynopsis returns the node's max-norm table for (field, order, step),
// nil when the node keeps none.
func (n *Node) openSynopsis(f *derived.Field, st stencil.Stencil, step int) *synEntry {
	if n.synopsis == nil {
		return nil
	}
	return n.synopsis.open(synKey{cacheFieldKey(f.Name, st.Order), step})
}

// scanSet returns the atoms an evaluation of preds over qbox has to scan
// (see scanAtomsCovering) and how many more the synopsis pruned. Nil preds
// — a scan that wants every point — and a nil syn prune nothing.
func (n *Node) scanSet(syn *synEntry, qbox grid.Box, scan []morton.Range, preds []atomPred) (codes []morton.Code, pruned int, err error) {
	codes, err = n.scanAtomsCovering(qbox, scan)
	if err != nil || syn == nil || preds == nil {
		return codes, 0, err
	}
	kept := syn.filter(n.store.Grid(), codes, preds)
	return kept, len(codes) - len(kept), nil
}

// evalPhases runs the two-phase (I/O then compute) data-parallel evaluation
// over this node's shard of qbox and reports phase timings. scan restricts
// the shard to the given atom ranges (replica routing); empty means the
// node's primary range. consumerFor builds each worker's row consumer.
//
// preds are the predicates the consumers evaluate; nil, or a −Inf threshold
// (PDF, top-k), wants every point. With predicates, the node's synopsis
// first removes the atoms that cannot hold a qualifying point — they are
// not read, not fetched halo for, not decoded, not evaluated — and a
// consumer sees only the rows that reach the lowest threshold. Every scan
// teaches the synopsis the maxima of the atoms it evaluated whole, unless
// it failed or had to skip atoms.
func (n *Node) evalPhases(
	ctx context.Context,
	p *sim.Proc,
	f *derived.Field,
	st stencil.Stencil,
	step int,
	qbox grid.Box,
	scan []morton.Range,
	hw int,
	preds []atomPred,
	consumerFor func(worker int) rowConsumer,
) (Breakdown, error) {
	var bd Breakdown
	procs := n.Processes()
	syn := n.openSynopsis(f, st, step)
	codes, pruned, err := n.scanSet(syn, qbox, scan, preds)
	if err != nil {
		return bd, err
	}
	bd.AtomsPruned = pruned
	floor := math.Inf(-1)
	if preds != nil {
		floor = math.Inf(1)
		for _, pr := range preds {
			if pr.threshold < floor { // a NaN threshold matches nothing and lowers nothing
				floor = pr.threshold
			}
		}
	}
	shards := splitWork(codes, procs)

	// Phase 1: I/O — every worker fetches the blobs of its shard plus halo.
	// Workers share a per-query buffer pool so each atom record pays disk
	// time once per node per query.
	pool := newBufferPool()
	ioStart := n.exec.Now()
	ioCtx, ioSp := obs.StartSpan(ctx, "scan_io")
	if syn != nil {
		ioSp.SetAttr("atoms_pruned", int64(bd.AtomsPruned))
	}
	data := make([]workerData, procs)
	n.exec.Fork(p, procs, func(i int, wp *sim.Proc) {
		data[i] = n.gather(ioCtx, wp, f.Raws, step, shards[i], qbox, hw, pool)
	})
	ioSp.End()
	bd.IO = n.exec.Now() - ioStart
	mScanIO.Observe(bd.IO.Seconds())
	for _, d := range data {
		if d.err != nil {
			return bd, d.err
		}
		bd.AtomsRead += d.atomsRead
		bd.HaloAtoms += d.haloAtoms
	}

	// Phase 2: compute — decode, evaluate and consume slab by slab.
	compStart := n.exec.Now()
	compCtx, compSp := obs.StartSpan(ctx, "scan_compute")
	errs := make([]error, procs)
	results := make([]shardResult, procs)
	n.exec.Fork(p, procs, func(i int, wp *sim.Proc) {
		results[i], errs[i] = n.scanShard(compCtx, wp, f, st, shards[i], data[i].blobs, qbox, hw, floor, consumerFor(i))
	})
	compSp.End()
	bd.Compute = n.exec.Now() - compStart
	mScanCompute.Observe(bd.Compute.Seconds())
	for i, e := range errs {
		if e != nil {
			return bd, e
		}
		bd.PointsExamined += results[i].examined
		bd.AtomsSkipped += results[i].skipped
	}
	if syn != nil && bd.AtomsSkipped == 0 {
		for _, r := range results {
			for _, am := range r.learned {
				syn.learn(am.code, am.max)
			}
		}
	}
	mPointsExam.Add(int64(bd.PointsExamined))
	mAtomsSkipped.Add(int64(bd.AtomsSkipped))
	mAtomsPruned.Add(int64(bd.AtomsPruned))
	return bd, nil
}
