package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"github.com/turbdb/turbdb/internal/cache"
	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/field"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/node"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/stencil"
	"github.com/turbdb/turbdb/internal/store"
	"github.com/turbdb/turbdb/internal/wire"
	"github.com/turbdb/turbdb/internal/wire/binproto"
)

// The lanes time one layer's public functions in isolation, on this run's
// own data: node 0's shard for the store, a 4×4×4-atom cube with its
// neighbours for decode, assembly and the row kernels, and a result of
// lanePoints points (the size of the largest frame workload answer) for the
// cache and the wire codecs. Their costs times the counts of the traced
// replay are what node.scan_unaccounted_ratio subtracts from the node span.

// lanePoints is the size of the result set the cache and codec lanes use:
// a tenth of a 64³ time-step, the largest answer any workload returns.
const lanePoints = 26214

// laneBudget bounds the time one lane measures for.
const laneBudget = 120 * time.Millisecond

// timeLane runs fn repeatedly for about laneBudget (at least 3 times) and
// returns the median duration of one call. It starts from a collected heap;
// runLanes keeps the collector off meanwhile, so a lane times its function
// and not the heap it happens to run beside (the collector's cost is
// reported by the proc.* metrics).
func timeLane(fn func() error) (time.Duration, error) {
	runtime.GC()
	var durs []time.Duration
	begin := time.Now()
	for len(durs) < 3 || time.Since(begin) < laneBudget {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		durs = append(durs, time.Since(t0))
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	return durs[len(durs)/2], nil
}

// laneCube is the atoms the compute lanes evaluate: a cube of side atoms
// per axis at the domain's origin (every atom of the smoke grids).
type laneCube struct {
	g       grid.Grid
	centers []morton.Code
}

func newLaneCube(g grid.Grid) laneCube {
	side := 4
	if g.AtomsPerSide() < side {
		side = g.AtomsPerSide()
	}
	lc := laneCube{g: g}
	for z := 0; z < side; z++ {
		for y := 0; y < side; y++ {
			for x := 0; x < side; x++ {
				lc.centers = append(lc.centers, morton.Encode(uint32(x), uint32(y), uint32(z)))
			}
		}
	}
	return lc
}

// blobsWithHalo reads, from whichever store owns them, the cube's atoms of
// a raw field plus every atom within hw points of one (periodic).
func (lc laneCube) blobsWithHalo(stores []*store.Store, rawField string, hw int) (map[morton.Code][]byte, error) {
	need := make(map[morton.Code]struct{})
	for _, c := range lc.centers {
		covers, err := lc.g.AtomsCovering(lc.g.AtomBox(c).Expand(hw))
		if err != nil {
			return nil, err
		}
		for _, cc := range covers {
			need[cc] = struct{}{}
		}
	}
	out := make(map[morton.Code][]byte, len(need))
	for c := range need {
		for _, st := range stores {
			if st.Owns(c) {
				blob, err := st.ReadAtom(nil, rawField, 0, c)
				if err != nil {
					return nil, err
				}
				out[c] = blob
			}
		}
		if out[c] == nil {
			return nil, fmt.Errorf("bench: atom %v held by no store", c)
		}
	}
	return out, nil
}

func decodeAll(g grid.Grid, nc int, blobs map[morton.Code][]byte) (map[morton.Code]*field.Block, error) {
	blocks := make(map[morton.Code]*field.Block, len(blobs))
	for c, blob := range blobs {
		bl, err := field.BlockFromBytes(g.AtomBox(c), nc, blob)
		if err != nil {
			return nil, err
		}
		blocks[c] = bl
	}
	return blocks, nil
}

func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// assemble builds the halo-extended block of one atom from its neighbours
// with Block.CopyFrom — the work node.assembleExtended does per atom.
func assemble(g grid.Grid, blocks map[morton.Code]*field.Block, ext *field.Block, box grid.Box, nc int) error {
	ext.Reset(box, nc)
	side := g.AtomSide
	for az := floorDiv(box.Lo.Z, side); az*side < box.Hi.Z; az++ {
		for ay := floorDiv(box.Lo.Y, side); ay*side < box.Hi.Y; ay++ {
			for ax := floorDiv(box.Lo.X, side); ax*side < box.Hi.X; ax++ {
				origin := grid.Point{X: ax * side, Y: ay * side, Z: az * side}
				wrapped := g.WrapPoint(origin)
				bl := blocks[g.AtomCode(wrapped)]
				if bl == nil {
					return fmt.Errorf("bench: assembly lane misses atom at %v", wrapped)
				}
				if err := ext.CopyFrom(bl, grid.Point{X: origin.X - wrapped.X, Y: origin.Y - wrapped.Y, Z: origin.Z - wrapped.Z}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// laneClass is one (field, order) the kernel lane evaluates.
type laneClass struct {
	name  string
	field string
	order int
}

var laneClasses = []laneClass{
	{"vorticity_o4", derived.Vorticity, 4},
	{"current_o4", derived.Current, 4},
	{"qcriterion_o4", derived.QCriterion, 4},
	{"vorticity_o8", derived.Vorticity, 8},
	{"velocity", derived.Velocity, 4},
}

// runLanes measures every direct-call lane and returns its metrics by
// catalogue name.
func runLanes(stores []*store.Store, dataset string, result []query.ResultPoint) (map[string]float64, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	m := make(map[string]float64)
	g := stores[0].Grid()
	ppa := float64(g.PointsPerAtom())

	// store: read every atom of node 0's shard.
	owned := stores[0].Owned()
	var shard []morton.Code
	for c := owned.Lo; c < owned.Hi; c++ {
		shard = append(shard, c)
	}
	var blobs map[morton.Code][]byte
	d, err := timeLane(func() (err error) {
		blobs, err = stores[0].ReadAtoms(nil, derived.Velocity, 0, shard)
		return err
	})
	if err != nil {
		return nil, err
	}
	m["store.read_ns_per_atom"] = float64(d) / float64(len(shard))
	for _, b := range blobs {
		m["store.blob_bytes"] = float64(len(b))
		break
	}

	// field: decode the blobs just read.
	vmeta, err := stores[0].FieldMeta(derived.Velocity)
	if err != nil {
		return nil, err
	}
	d, err = timeLane(func() error {
		_, err := decodeAll(g, vmeta.NComp, blobs)
		return err
	})
	if err != nil {
		return nil, err
	}
	m["field.decode_ns_per_point"] = float64(d) / (float64(len(shard)) * ppa)

	// field + derived: assemble the cube's extended blocks per order, then
	// run the row kernel of every class over every row of them.
	lc := newLaneCube(g)
	cubePoints := float64(len(lc.centers)) * ppa
	reg := derived.Standard()
	for _, cl := range laneClasses {
		f, err := reg.Lookup(cl.field)
		if err != nil {
			return nil, err
		}
		st, err := stencil.Get(cl.order)
		if err != nil {
			return nil, err
		}
		hw, err := f.HalfWidth(cl.order)
		if err != nil {
			return nil, err
		}
		raw := f.Raws[0]
		rawBlobs, err := lc.blobsWithHalo(stores, raw.Name, hw)
		if err != nil {
			return nil, err
		}
		blocks, err := decodeAll(g, raw.NComp, rawBlobs)
		if err != nil {
			return nil, err
		}
		exts := make([]*field.Block, len(lc.centers))
		for i, c := range lc.centers {
			if hw == 0 {
				exts[i] = blocks[c]
				continue
			}
			exts[i] = field.NewBlock(g.AtomBox(c).Expand(hw), raw.NComp)
		}
		if hw > 0 {
			d, err := timeLane(func() error {
				for i, c := range lc.centers {
					if err := assemble(g, blocks, exts[i], g.AtomBox(c).Expand(hw), raw.NComp); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			// Reported once per order; the curl and gradient fields share it.
			key := fmt.Sprintf("o%d", cl.order)
			if _, seen := m["field.assemble_ns_per_point."+key]; !seen {
				m["field.assemble_ns_per_point."+key] = float64(d) / cubePoints
				ext := float64(g.AtomSide + 2*hw)
				m["field.assemble_amplification."+key] = ext * ext * ext / ppa // computed, not measured
			}
		}

		rowW := g.AtomSide
		norms := make([]float64, rowW)
		vals := make([]float64, rowW*f.OutComp)
		scratch := make([]float64, rowW*f.RowScratchPerPoint)
		one := make([]*field.Block, 1)
		var sink float64
		d, err := timeLane(func() error {
			for i, c := range lc.centers {
				one[0] = exts[i]
				abox := g.AtomBox(c)
				var pt grid.Point
				pt.X = abox.Lo.X
				for pt.Z = abox.Lo.Z; pt.Z < abox.Hi.Z; pt.Z++ {
					for pt.Y = abox.Lo.Y; pt.Y < abox.Hi.Y; pt.Y++ {
						f.NormRow(st, one, pt, rowW, g.Dx, norms, vals, scratch)
						sink += norms[0]
					}
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if sink < 0 {
			return nil, errors.New("bench: negative norm in the kernel lane")
		}
		m["derived.normrow_ns_per_point."+cl.name] = float64(d) / cubePoints
	}

	// cache: store, hit and miss on a fresh unbounded cache.
	ca, err := cache.New(cache.Config{})
	if err != nil {
		return nil, err
	}
	domain := g.Domain()
	thr := float64(result[0].Value)
	for _, p := range result {
		if v := float64(p.Value); v < thr {
			thr = v
		}
	}
	step := 0
	d, err = timeLane(func() error {
		step++ // a new entry each time: storing over an entry replaces it
		return ca.Store(nil, dataset, "lane", step, thr, domain, result)
	})
	if err != nil {
		return nil, err
	}
	m["cache.store_ns_per_point"] = float64(d) / float64(len(result))
	d, err = timeLane(func() error {
		pts, ok, err := ca.Lookup(nil, dataset, "lane", 1, thr, domain)
		if err == nil && (!ok || len(pts) != len(result)) {
			err = fmt.Errorf("bench: cache lane looked up %d of %d points (hit=%v)", len(pts), len(result), ok)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	m["cache.lookup_hit_ns_per_point"] = float64(d) / float64(len(result))
	d, err = timeLane(func() error {
		_, ok, err := ca.Lookup(nil, dataset, "absent", 1, thr, domain)
		if err == nil && ok {
			err = errors.New("bench: cache lane hit an absent key")
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	m["cache.lookup_miss_us"] = float64(d) / float64(time.Microsecond)

	// wire: both response encodings of the same result.
	n := float64(len(result))
	encodeFrames := func(w io.Writer) error {
		bw := binproto.NewWriter(w)
		if err := node.ChunkPoints(result, binproto.MaxChunk, bw.Points); err != nil {
			return err
		}
		if err := bw.Stats(binproto.Stats{Coverage: 1}); err != nil {
			return err
		}
		return bw.End(binproto.End{Items: 1})
	}
	var frameBody bytes.Buffer
	if err := encodeFrames(&frameBody); err != nil {
		return nil, err
	}
	m["wire.frame_bytes_per_point"] = float64(frameBody.Len()) / n
	if d, err = timeLane(func() error { return encodeFrames(io.Discard) }); err != nil {
		return nil, err
	}
	m["wire.frame_encode_ns_per_point"] = float64(d) / n
	d, err = timeLane(func() error {
		r := binproto.NewReader(bytes.NewReader(frameBody.Bytes()))
		got := 0
		for {
			fr, err := r.Next()
			if err != nil {
				return err
			}
			switch f := fr.(type) {
			case *binproto.Points:
				got += len(f.Codes)
			case *binproto.End:
				if got != len(result) {
					return fmt.Errorf("bench: frame lane decoded %d of %d points", got, len(result))
				}
				return nil
			}
		}
	})
	if err != nil {
		return nil, err
	}
	m["wire.frame_decode_ns_per_point"] = float64(d) / n

	dto := make([]wire.PointDTO, len(result))
	for i, p := range result {
		dto[i] = wire.PointDTO{Code: uint64(p.Code), Value: p.Value}
	}
	resp := wire.ThresholdResponse{Points: dto, Coverage: 1}
	jsonBody, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	m["wire.json_bytes_per_point"] = float64(len(jsonBody)) / n
	if d, err = timeLane(func() error { return json.NewEncoder(io.Discard).Encode(resp) }); err != nil {
		return nil, err
	}
	m["wire.json_encode_ns_per_point"] = float64(d) / n
	d, err = timeLane(func() error {
		var back wire.ThresholdResponse
		if err := json.Unmarshal(jsonBody, &back); err != nil {
			return err
		}
		if len(back.Points) != len(result) {
			return fmt.Errorf("bench: JSON lane decoded %d of %d points", len(back.Points), len(result))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["wire.json_decode_ns_per_point"] = float64(d) / n
	return m, nil
}
