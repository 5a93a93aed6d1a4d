// Command turbdb-gen synthesizes a turbulence dataset and writes the
// sharded atom tables of an N-node deployment to disk, ready to be served
// by turbdb-server.
//
// Usage:
//
//	turbdb-gen -out ./deploy -kind mhd -grid 64 -steps 4 -nodes 4 -seed 2015
//
// The output directory holds a manifest.json plus one node<i>/ directory
// per node, each containing the node's Morton-range shard of every raw
// field at every time-step.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/membership"
	"github.com/turbdb/turbdb/internal/store"
	"github.com/turbdb/turbdb/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("turbdb-gen: ")
	if err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run is the whole command: it parses args, synthesizes the dataset and
// writes the deployment. Every mistake in args fails it before it writes
// anything; ctx stops the synthesis between blocks.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("turbdb-gen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out      = fs.String("out", "", "output deployment directory (required)")
		kindName = fs.String("kind", "mhd", `dataset kind: "isotropic" or "mhd"`)
		gridN    = fs.Int("grid", 64, "grid side (power of two)")
		atomSide = fs.Int("atom", grid.DefaultAtomSide, "database atom side")
		steps    = fs.Int("steps", 4, "number of time-steps")
		nodes    = fs.Int("nodes", 4, "number of database nodes (shards)")
		seed     = fs.Int64("seed", 2015, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		fs.Usage()
		return errors.New("-out is required")
	}

	var kind synth.Kind
	switch *kindName {
	case "isotropic":
		kind = synth.Isotropic
	case "mhd":
		kind = synth.MHD
	default:
		return fmt.Errorf("unknown kind %q", *kindName)
	}
	// synth reads Steps 0 as one step; the manifest would still say 0.
	if *steps < 1 {
		return fmt.Errorf("-steps %d: want at least 1", *steps)
	}

	gen, err := synth.New(synth.Params{
		N: *gridN, AtomSide: *atomSide, Seed: *seed, Kind: kind, Steps: *steps,
	})
	if err != nil {
		return err
	}
	g := gen.Grid()
	// The shards are the k = 1 placement: the equal split of the atoms.
	pl, err := membership.Place(g.AtomRange(), *nodes, 1)
	if err != nil {
		return fmt.Errorf("-nodes %d: %w", *nodes, err)
	}

	manifest := store.Manifest{
		Dataset: gen.Name(), GridN: g.N, AtomSide: g.AtomSide, Dx: g.Dx,
		Steps: *steps, Seed: *seed,
	}
	for _, rf := range gen.RawFields() {
		manifest.Fields = append(manifest.Fields, store.FieldMeta{Name: rf.Name, NComp: rf.NComp})
	}
	for _, r := range pl.Ranges {
		manifest.Shards = append(manifest.Shards, [2]uint64{uint64(r.Lo), uint64(r.Hi)})
	}
	stores := make([]*store.Store, *nodes)
	for i := range stores {
		s, err := store.New(store.Config{Grid: g, Owned: pl.Ranges[i]})
		if err != nil {
			return err
		}
		for _, fm := range manifest.Fields {
			if err := s.CreateField(fm); err != nil {
				return err
			}
		}
		stores[i] = s
	}
	if err := store.WriteManifest(*out, manifest); err != nil {
		return err
	}

	for _, rf := range gen.RawFields() {
		for step := 0; step < *steps; step++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "synthesizing %-9s step %d/%d\n", rf.Name, step+1, *steps)
			bl, err := gen.Field(rf.Name, step)
			if err != nil {
				return err
			}
			for i, s := range stores {
				if _, err := s.IngestBlock(rf.Name, step, bl); err != nil {
					return fmt.Errorf("node %d: %w", i, err)
				}
			}
		}
	}

	var totalAtoms int
	for i, s := range stores {
		if err := s.Save(store.NodeDir(*out, i)); err != nil {
			return err
		}
		for _, fm := range manifest.Fields {
			totalAtoms += s.CountAtoms(fm.Name, 0) * *steps
		}
	}
	fmt.Fprintf(stdout, "wrote %s: %s dataset, %d³ grid, %d steps, %d nodes, %d atom records\n",
		*out, manifest.Dataset, g.N, *steps, *nodes, totalAtoms)
	return nil
}
