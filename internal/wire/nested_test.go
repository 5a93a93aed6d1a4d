package wire

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sort"
	"testing"

	"github.com/turbdb/turbdb/internal/cluster"
	"github.com/turbdb/turbdb/internal/derived"
	"github.com/turbdb/turbdb/internal/field"
	"github.com/turbdb/turbdb/internal/fieldexpr"
	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/stencil"
	"github.com/turbdb/turbdb/internal/synth"
)

// Nested operators read their whole halo box: div(grad(pressure)) and
// curl(curl(velocity)), two operators deep, keep the zero value of
// derived.Field.AxisReach, and the node scan answers them bit for bit as
// brute force does — on a 4-node in-process cluster whose peers hand over
// whole atoms, and on its loopback HTTP twin whose halos cross /atoms as
// bands — at order 2 over the domain and at order 4 over a box that clips
// atoms.
func TestNestedOperatorsMatchBruteForce(t *testing.T) {
	gen, err := synth.New(synth.Params{N: 16, Seed: 21, Kind: synth.Isotropic})
	if err != nil {
		t.Fatal(err)
	}
	g := gen.Grid()
	reg := derived.NewRegistry()
	nested := [][2]string{{"laplacep", "div(grad(pressure))"}, {"curlcurl", "curl(curl(velocity))"}}
	for _, ns := range nested {
		f, err := fieldexpr.Compile(ns[0], ns[1], map[string]int{derived.Velocity: 3, derived.Pressure: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Register(f); err != nil {
			t.Fatal(err)
		}
	}
	cfg := cluster.Config{Nodes: 4, Processes: 2, Registry: reg}
	inProcess, err := cluster.Build(gen, cfg)
	if err != nil {
		t.Fatal(err)
	}
	served, err := cluster.Build(gen, cfg)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*Client, len(served.Nodes()))
	for i, n := range served.Nodes() {
		srv := httptest.NewServer(NewNodeServer(n).Handler())
		t.Cleanup(srv.Close)
		clients[i] = NewClient(srv.URL)
	}
	for i, n := range served.Nodes() {
		n.SetPeers(NewPeerSet(clients, i))
	}
	ctx := context.Background()
	ds := inProcess.Nodes()[0].Dataset()
	clipping := grid.Box{Lo: grid.Point{X: 3, Y: 5, Z: 2}, Hi: grid.Point{X: 13, Y: 11, Z: 15}}
	for _, ns := range nested {
		name := ns[0]
		f, err := reg.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			order int
			box   grid.Box
		}{{2, g.Domain()}, {4, clipping}} {
			norms := bruteNorms(t, gen, f, c.order)
			sorted := append([]float64(nil), norms...)
			sort.Float64s(sorted)
			threshold := sorted[len(sorted)/2] // half the points: a misread halo shows anywhere
			var want []query.ResultPoint
			var p grid.Point
			for p.Z = c.box.Lo.Z; p.Z < c.box.Hi.Z; p.Z++ {
				for p.Y = c.box.Lo.Y; p.Y < c.box.Hi.Y; p.Y++ {
					for p.X = c.box.Lo.X; p.X < c.box.Hi.X; p.X++ {
						if v := norms[(p.Z*g.N+p.Y)*g.N+p.X]; v >= threshold {
							want = append(want, query.PointFor(p, v))
						}
					}
				}
			}
			sort.Slice(want, func(i, j int) bool { return want[i].Code < want[j].Code })
			q := query.Threshold{Dataset: ds, Field: name, FDOrder: c.order, Box: c.box, Threshold: threshold, Limit: 1 << 20}
			var local, remote []query.ResultPoint
			for i, cli := range clients {
				r, err := inProcess.Nodes()[i].GetThreshold(ctx, nil, q)
				if err != nil {
					t.Fatalf("%s o%d in process, node %d: %v", name, c.order, i, err)
				}
				local = append(local, r.Points...)
				if r, err = cli.GetThreshold(ctx, nil, q); err != nil {
					t.Fatalf("%s o%d over HTTP, node %d: %v", name, c.order, i, err)
				}
				remote = append(remote, r.Points...)
			}
			for _, path := range []struct {
				name string
				got  []query.ResultPoint
			}{{"in process", local}, {"over HTTP", remote}} {
				sort.Slice(path.got, func(i, j int) bool { return path.got[i].Code < path.got[j].Code })
				samePoints(t, fmt.Sprintf("%s o%d %v %s", name, c.order, c.box, path.name), path.got, want)
			}
		}
	}
}

// bruteNorms evaluates f at every grid point of step 0 by brute force —
// each raw input wrapped periodically into one whole-domain block,
// Field.Norm point by point — and returns the norms x-fastest.
func bruteNorms(t *testing.T, gen *synth.Generator, f *derived.Field, order int) []float64 {
	t.Helper()
	g := gen.Grid()
	hw, err := f.HalfWidth(order)
	if err != nil {
		t.Fatal(err)
	}
	exts := make([]*field.Block, len(f.Raws))
	for i, rf := range f.Raws {
		raw, err := gen.Field(rf.Name, 0)
		if err != nil {
			t.Fatal(err)
		}
		exts[i] = field.NewBlock(g.Domain().Expand(hw), rf.NComp)
		exts[i].Fill(func(p grid.Point, vals []float64) {
			for c := range vals {
				vals[c] = raw.At(g.WrapPoint(p), c)
			}
		})
	}
	st := stencil.MustGet(order)
	norms := make([]float64, 0, g.N*g.N*g.N)
	scratch := make([]float64, f.OutComp)
	var p grid.Point
	for p.Z = 0; p.Z < g.N; p.Z++ {
		for p.Y = 0; p.Y < g.N; p.Y++ {
			for p.X = 0; p.X < g.N; p.X++ {
				norms = append(norms, f.Norm(st, exts, p, g.Dx, scratch))
			}
		}
	}
	return norms
}
