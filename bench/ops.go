package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"

	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/grid"
)

// opKind is the query type of an op.
type opKind uint8

const (
	opThreshold opKind = iota
	opPDF
	opTopK
)

// topK is the K of the workloads' top-k ops.
const topK = 100

// op is one generated query. The threshold is named by level, an index
// into the class's thresholds, because values are resolved from the oracle
// in set-up; everything else is drawn from the workload seed.
type op struct {
	kind   opKind
	field  string
	order  int
	step   int
	level  int      // threshold ops only
	box    grid.Box // zero = whole domain
	tenant string
	drop   bool // drop the (field, order, step) cache entries first, untimed
}

func (o op) key() classKey { return classKey{o.field, o.order, o.step} }

// class is the (field, order) label node-level metrics split by.
func (o op) class() string {
	if o.field == derived.Velocity {
		return o.field
	}
	return fmt.Sprintf("%s_o%d", o.field, o.order)
}

// workloadSpec is everything fixed about a workload; the seed only drives
// the op generator.
type workloadSpec struct {
	name        string
	n, steps    int
	sys         systemConfig
	callers     int
	warmup      int
	allHits     bool      // set-up fills the caches and a single miss fails the run
	tracePrefix int       // ops the traced run replays
	fractions   []float64 // descending result fractions → ascending thresholds
	keys        []classKey
	newGen      func(seed int64) func() op
}

type fieldOrder struct {
	field string
	order int
}

func keysFor(fos []fieldOrder, steps int) []classKey {
	var ks []classKey
	for _, fo := range fos {
		for s := 0; s < steps; s++ {
			ks = append(ks, classKey{fo.field, fo.order, s})
		}
	}
	return ks
}

// specFor returns the named workload. short shrinks the grid to 32³ for the
// smoke tests; the generators and system shapes are the same code.
func specFor(name string, short bool) (*workloadSpec, error) {
	n64, n128 := 64, 128
	if short {
		n64, n128 = 32, 32
	}
	switch name {
	case wlColdScan:
		// vorticity/o4 is drawn twice as often as the others: with the two
		// curl kernels costing the same, 60 % of the ops share one latency
		// mode and the median sits inside it instead of on the edge between
		// two modes, where it would flip with the seed.
		classes := []fieldOrder{
			{derived.Vorticity, 4}, {derived.Vorticity, 4}, {derived.Current, 4},
			{derived.QCriterion, 4}, {derived.Vorticity, 8},
		}
		w := &workloadSpec{
			name: name, n: n128, steps: 1, callers: 1, warmup: 8, tracePrefix: 100,
			sys:       systemConfig{cache: true},
			fractions: []float64{8.47e-4, 8.1e-5, 4.0e-6}, // the paper's low / medium / high levels
			keys:      keysFor(classes[1:], 1),
		}
		w.newGen = func(seed int64) func() op {
			rng := rand.New(rand.NewSource(seed))
			class, level := newDeck(rng, len(classes)), newDeck(rng, len(w.fractions))
			return func() op {
				c := classes[class.draw()]
				return op{kind: opThreshold, field: c.field, order: c.order, level: level.draw(), drop: true}
			}
		}
		return w, nil

	case wlHitFrame:
		fields := []string{derived.Vorticity, derived.Current}
		w := &workloadSpec{
			name: name, n: n64, steps: 2, callers: 1, warmup: 100, tracePrefix: 800, allHits: true,
			sys:       systemConfig{http: true, frames: true, sched: true, cache: true},
			fractions: []float64{0.10, 0.03, 0.01},
			keys:      keysFor([]fieldOrder{{fields[0], 4}, {fields[1], 4}}, 2),
		}
		w.newGen = func(seed int64) func() op {
			rng := rand.New(rand.NewSource(seed))
			combo := newDeck(rng, len(fields)*w.steps*len(w.fractions))
			return func() op {
				c := combo.draw()
				return op{
					kind: opThreshold, field: fields[c%len(fields)], order: 4,
					step: c / len(fields) % w.steps, level: c / len(fields) / w.steps,
				}
			}
		}
		return w, nil

	case wlSessionJS:
		fields := []string{derived.Vorticity, derived.Current, derived.QCriterion, derived.Velocity}
		var fos []fieldOrder
		for _, f := range fields {
			fos = append(fos, fieldOrder{f, 4})
		}
		w := &workloadSpec{
			name: name, n: n64, steps: 4, callers: 1, warmup: 100, tracePrefix: 700,
			// 128 KiB per node holds two entries of the lowest level, not
			// the four-pair hot window, so the stream evicts.
			sys:       systemConfig{http: true, sched: true, cache: true, cacheCapacity: 128 << 10},
			fractions: []float64{2e-2, 5e-3, 1e-3, 1e-4},
			keys:      keysFor(fos, 4),
		}
		w.newGen = func(seed int64) func() op {
			rng := rand.New(rand.NewSource(seed))
			next := revisitStream(rng, fields, w.steps, len(w.fractions), 4, 4)
			pair := newDeck(rng, len(fields)*w.steps)
			i := 0
			return func() op {
				i++
				if i%10 != 0 {
					return next()
				}
				c := pair.draw()
				o := op{kind: opPDF, field: fields[c%len(fields)], order: 4, step: c / len(fields)}
				if i%20 == 0 {
					o.kind = opTopK
				}
				return o
			}
		}
		return w, nil

	case wlTenants:
		fields := []string{derived.Vorticity, derived.QCriterion}
		type tenant struct {
			name string
			hot  grid.Box
		}
		tenants := []tenant{{name: "whole"}}
		for i, b := range hotBoxes(n64) {
			tenants = append(tenants, tenant{fmt.Sprintf("hot%d", i), b})
		}
		w := &workloadSpec{
			name: name, n: n64, steps: 2, callers: 8, warmup: 200, tracePrefix: 1000,
			sys:       systemConfig{sched: true},
			fractions: []float64{2e-2, 5e-3, 1e-3, 1e-4},
			keys:      keysFor([]fieldOrder{{fields[0], 4}, {fields[1], 4}}, 2),
		}
		w.newGen = func(seed int64) func() op {
			rng := rand.New(rand.NewSource(seed))
			next := revisitStream(rng, fields, w.steps, len(w.fractions), 2, 4)
			who, inHot := newDeck(rng, len(tenants)), newDeck(rng, 5)
			return func() op {
				o := next()
				t := tenants[who.draw()]
				o.tenant = t.name
				if t.hot != (grid.Box{}) && inHot.draw() < 4 { // hot bias 0.8
					o.box = t.hot
				}
				return o
			}
		}
		return w, nil
	}
	return nil, fmt.Errorf("bench: unknown workload %q (try -list)", name)
}

// hotBoxes are the three tenants' favourite regions: overlapping 32³ boxes
// on the 64³ grid (half-domain boxes on the smoke grid), all aligned to the
// 8-point atoms because a derived-field query over an unaligned box fails
// on the seed (see README, known defect).
func hotBoxes(n int) []grid.Box {
	cube := func(x, y, z, side int) grid.Box {
		return grid.Box{Lo: grid.Point{X: x, Y: y, Z: z}, Hi: grid.Point{X: x + side, Y: y + side, Z: z + side}}
	}
	if n < 64 {
		h, q := n/2, n/4
		return []grid.Box{cube(0, 0, 0, h), cube(q, 0, 0, h), cube(q, h, h, h)}
	}
	return []grid.Box{cube(0, 0, 0, 32), cube(24, 0, 0, 32), cube(8, 24, 24, 32)}
}

// deck deals the numbers 0..n-1 in seeded random order and reshuffles when
// it runs out. Draws are as unpredictable as independent ones, but every n
// consecutive draws hold each value once: two seeds' op lists differ in
// order, not in mix, so a metric's spread over seeds is the machine's and
// not the dice's.
type deck struct {
	rng   *rand.Rand
	cards []int
	next  int
}

func newDeck(rng *rand.Rand, n int) *deck {
	d := &deck{rng: rng, cards: make([]int, n), next: n}
	for i := range d.cards {
		d.cards[i] = i
	}
	return d
}

func (d *deck) draw() int {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// revisitStream is the bench's own version of internal/workload's
// structured stream (paper Sec. 5.2: "queries tend to examine the same
// regions in space and time"): one op in every block of `every` explores a
// new (field, step) pair at some level; the others return to one of the
// last window pairs at the same or a higher threshold level — answerable
// from the cache. Explored pairs and levels are dealt from decks. A
// version of its own, so that a change to the program's generator cannot
// move the benchmark's inputs.
func revisitStream(rng *rand.Rand, fields []string, steps, levels, every, window int) func() op {
	type hotKey struct {
		field string
		step  int
		level int
	}
	var hot []hotKey
	pair, level, slot := newDeck(rng, len(fields)*steps), newDeck(rng, levels), newDeck(rng, every)
	i, explore := 0, 0
	return func() op {
		if i%every == 0 {
			explore = slot.draw() // which op of this block explores
		}
		i++
		if len(hot) > 0 && (i-1)%every != explore {
			k := hot[rng.Intn(len(hot))]
			return op{kind: opThreshold, field: k.field, order: 4, step: k.step, level: k.level + rng.Intn(levels-k.level)}
		}
		c := pair.draw()
		k := hotKey{fields[c%len(fields)], c / len(fields), level.draw()}
		hot = append(hot, k)
		if len(hot) > window {
			hot = hot[len(hot)-window:]
		}
		return op{kind: opThreshold, field: k.field, order: 4, step: k.step, level: k.level}
	}
}

// opListHash is the FNV-1a hash of the first n ops a seed generates; the
// drift guard in bench_test.go pins it.
func opListHash(w *workloadSpec, seed int64, n int) uint64 {
	h := fnv.New64a()
	next := w.newGen(seed)
	var buf [8]byte
	write := func(b []byte) {
		_, _ = h.Write(b) //lint:allow droppederr hash.Hash.Write never returns an error
	}
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		write(buf[:])
	}
	for i := 0; i < n; i++ {
		o := next()
		put(int(o.kind))
		write([]byte(o.field))
		put(o.order)
		put(o.step)
		put(o.level)
		for _, p := range []grid.Point{o.box.Lo, o.box.Hi} {
			put(p.X)
			put(p.Y)
			put(p.Z)
		}
		write([]byte(o.tenant))
		if o.drop {
			put(1)
		}
	}
	return h.Sum64()
}
