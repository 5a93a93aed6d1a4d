package node

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/field"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/obs"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sim"
)

// bandFetcher ships what the HTTP halo hop ships: every atom cut down to
// the part the asking worker reads of it (HaloParts), trim bytes short.
// shipped counts the bytes it handed out.
type bandFetcher struct {
	inner   PeerFetcher
	trim    int
	shipped *atomic.Int64
}

func (f bandFetcher) FetchAtoms(ctx context.Context, p *sim.Proc, rawField string, step int, codes []morton.Code) (map[morton.Code][]byte, error) {
	blobs, err := f.inner.FetchAtoms(ctx, p, rawField, step, codes)
	side, parts := HaloParts(ctx)
	if err != nil || parts == nil {
		return blobs, err
	}
	atom := grid.Box{Hi: grid.Point{X: side, Y: side, Z: side}}
	out := make(map[morton.Code][]byte, len(blobs))
	for c, b := range blobs {
		nc := len(b) / 4 / atom.NumPoints()
		part := field.AppendPart(nil, b, atom, parts[c], nc)
		out[c] = part[:len(part)-f.trim]
		f.shipped.Add(int64(len(out[c])))
	}
	return out, nil
}

// wholeFetcher counts the bytes of the whole atoms it passes on.
type wholeFetcher struct {
	inner   PeerFetcher
	shipped *atomic.Int64
}

func (f wholeFetcher) FetchAtoms(ctx context.Context, p *sim.Proc, rawField string, step int, codes []morton.Code) (map[morton.Code][]byte, error) {
	blobs, err := f.inner.FetchAtoms(ctx, p, rawField, step, codes)
	for _, b := range blobs {
		f.shipped.Add(int64(len(b)))
	}
	return blobs, err
}

// A node whose peers ship halo bands answers exactly as one whose peers
// ship whole atoms — every field and order, one or two raw inputs, aligned
// and clipping boxes, one or two workers — with the same read counts, and
// fetches fewer bytes.
func TestHaloBandsMatchWholeAtoms(t *testing.T) {
	const gridN = 32
	raws := map[string]*field.Block{derived.Velocity: noise(gridN, 3, 12), derived.Magnetic: noise(gridN, 3, 13)}
	reg := derived.NewRegistry()
	if err := reg.Register(advection); err != nil {
		t.Fatal(err)
	}
	boxes := []grid.Box{
		{Hi: grid.Point{X: gridN, Y: gridN, Z: gridN}},
		{Lo: grid.Point{X: 8, Y: 0, Z: 8}, Hi: grid.Point{X: 24, Y: 16, Z: 32}},
		{Lo: grid.Point{X: 3, Y: 5, Z: 2}, Hi: grid.Point{X: 29, Y: 27, Z: 30}},
		{Lo: grid.Point{X: 7, Y: 7, Z: 14}, Hi: grid.Point{X: 9, Y: 9, Z: 18}},
	}
	var bands, wholes atomic.Int64
	for _, fieldName := range []string{derived.Vorticity, derived.QCriterion, advection.Name} {
		for _, order := range []int{2, 4, 6, 8} {
			for procs := 1; procs <= 2; procs++ {
				banded, whole := clusterOver(t, gridN, raws, 2, procs), clusterOver(t, gridN, raws, 2, procs)
				for i := range banded {
					banded[i].registry, whole[i].registry = reg, reg
					banded[i].peers = bandFetcher{inner: banded[i].peers, shipped: &bands}
					whole[i].peers = wholeFetcher{inner: whole[i].peers, shipped: &wholes}
				}
				for _, box := range boxes {
					q := query.Threshold{Dataset: "noise", Field: fieldName, FDOrder: order, Box: box, Limit: 1 << 20}
					for i := range banded {
						where := fmt.Sprintf("%s o%d ×%d %v node %d", fieldName, order, procs, box, i)
						got, err := banded[i].GetThreshold(context.Background(), nil, q)
						if err != nil {
							t.Fatalf("%s: %v", where, err)
						}
						want, err := whole[i].GetThreshold(context.Background(), nil, q)
						if err != nil {
							t.Fatalf("%s: %v", where, err)
						}
						exactPoints(t, got.Points, want.Points, where)
						if g, w := got.Breakdown, want.Breakdown; g.AtomsRead != w.AtomsRead || g.HaloAtoms != w.HaloAtoms || g.PointsExamined != w.PointsExamined {
							t.Fatalf("%s: read/halo/examined %d/%d/%d, whole atoms %d/%d/%d", where,
								g.AtomsRead, g.HaloAtoms, g.PointsExamined, w.AtomsRead, w.HaloAtoms, w.PointsExamined)
						}
					}
				}
			}
		}
	}
	if bands.Load() >= wholes.Load() {
		t.Fatalf("bands shipped %d bytes, whole atoms %d", bands.Load(), wholes.Load())
	}
	t.Logf("halo bytes: %d in bands, %d in whole atoms", bands.Load(), wholes.Load())
}

// A halo blob is the whole atom or exactly the part the scan reads: any
// other length fails the query with a permanent error before a row is
// decoded.
func TestHaloBlobOfWrongLengthFailsTyped(t *testing.T) {
	raws := map[string]*field.Block{derived.Velocity: noise(32, 3, 14)}
	nodes := clusterOver(t, 32, raws, 2, 1)
	var shipped atomic.Int64
	nodes[0].peers = bandFetcher{inner: nodes[0].peers, trim: 4, shipped: &shipped}
	_, err := nodes[0].GetThreshold(context.Background(), nil, query.Threshold{Dataset: "noise", Field: derived.Vorticity, Limit: 1 << 20})
	var tm faulttol.TransientMarker
	if err == nil || !errors.As(err, &tm) || tm.Transient() || !strings.Contains(err.Error(), "its part") {
		t.Fatalf("a short halo blob: %v, want a permanent length error", err)
	}
}

// Every halo_fetch span carries the bytes its peers shipped, as
// halo_bytes: here the bands.
func TestHaloFetchSpanCountsBytes(t *testing.T) {
	raws := map[string]*field.Block{derived.Velocity: noise(32, 3, 15)}
	n := clusterOver(t, 32, raws, 2, 2)[0]
	var shipped atomic.Int64
	n.peers = bandFetcher{inner: n.peers, shipped: &shipped}
	tr := obs.NewTrace("bytes", nil)
	q := query.Threshold{Dataset: "noise", Field: derived.Vorticity, FDOrder: 6, Limit: 1 << 20}
	if _, err := n.GetThreshold(obs.ContextWithTrace(context.Background(), tr), nil, q); err != nil {
		t.Fatal(err)
	}
	var spans, bytes int64
	for _, sp := range tr.Spans() {
		if sp.Name == "halo_fetch" {
			if sp.Attr.Key != "halo_bytes" {
				t.Fatalf("halo_fetch span carries %+v", sp.Attr)
			}
			spans, bytes = spans+1, bytes+sp.Attr.Value
		}
	}
	if spans == 0 || bytes != shipped.Load() {
		t.Fatalf("%d halo_fetch spans count %d bytes; the peers shipped %d", spans, bytes, shipped.Load())
	}
}
