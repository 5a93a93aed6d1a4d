// Command turbdb-bench regenerates the paper's tables and figures: it
// builds the synthetic dataset, assembles simulated clusters, runs every
// experiment of internal/experiments and prints the same rows and series
// the paper reports (Sec. 5), plus the ablations described in DESIGN.md.
//
// Usage:
//
//	turbdb-bench                 # everything, 64³ dataset
//	turbdb-bench -fig 6          # just Table 1 / Fig. 6
//	turbdb-bench -grid 128       # larger dataset (slower synthesis)
//
// Timings are virtual cluster time from the discrete-event simulation; see
// EXPERIMENTS.md for how they relate to the paper's published numbers.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/turbdb/turbdb/internal/experiments"
	"github.com/turbdb/turbdb/internal/query"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("turbdb-bench: ")

	var (
		gridN      = flag.Int("grid", 64, "grid side (power of two)")
		steps      = flag.Int("steps", 4, "time-steps")
		seed       = flag.Int64("seed", 2015, "dataset seed")
		fig        = flag.String("fig", "all", `which experiment: all, 2, 3, 4, 6, synopsis, 7a, 7b, 8, 9, local, ablations`)
		step       = flag.Int("step", 0, "time-step the per-step experiments use")
		trace      = flag.Bool("trace", false, "trace one threshold query (cold + warm cache) and print the span trees instead of running experiments")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
		proto      = flag.String("proto", "json", `modeled response encoding for the network model's wire-byte accounting: "json" or "frame"`)
	)
	flag.Parse()

	switch *proto {
	case "", "json":
		// SerializedPointSize default.
	case "frame":
		query.SetPointWireSize(query.FramePointSize)
	default:
		log.Fatalf("unknown -proto %q (want json or frame)", *proto)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Printf("cpuprofile: %v", err)
			}
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Printf("memprofile: %v", err)
				return
			}
			runtime.GC() // up-to-date live-heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("memprofile: %v", err)
			}
			if err := f.Close(); err != nil {
				log.Printf("memprofile: %v", err)
			}
		}()
	}

	start := time.Now()
	env, err := experiments.NewEnv(experiments.Setup{
		GridN: *gridN, Steps: *steps, Seed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: mhd %d³ × %d steps (seed %d); cluster: %d nodes × %d processes; calibrated per-point costs\n\n",
		*gridN, *steps, *seed, env.Setup.Nodes, env.Setup.Processes)

	if *trace {
		res, err := env.TraceDemo(*step)
		if err != nil {
			log.Fatalf("trace: %v", err)
		}
		fmt.Println(res.String())
		return
	}

	want := func(name string) bool { return *fig == "all" || *fig == name }
	type runner struct {
		name string
		run  func() (fmt.Stringer, error)
	}
	runners := []runner{
		{"2", func() (fmt.Stringer, error) { return env.Fig2PDF(*step) }},
		{"3", func() (fmt.Stringer, error) { return env.Fig3Worms() }},
		{"4", func() (fmt.Stringer, error) { return env.Fig4Count(*step) }},
		{"6", func() (fmt.Stringer, error) { return env.Table1CacheEffectiveness(*step) }},
		{"synopsis", func() (fmt.Stringer, error) { return env.SynopsisMiss(*step) }},
		{"7a", func() (fmt.Stringer, error) { return env.Fig7aScaleUp(*step) }},
		{"7b", func() (fmt.Stringer, error) { return env.Fig7bScaleOut(*step) }},
		{"8", func() (fmt.Stringer, error) { return env.Fig8IOBreakdown(*step) }},
		{"9", func() (fmt.Stringer, error) { return env.Fig9Breakdown(*step) }},
		{"local", func() (fmt.Stringer, error) { return env.LocalVsIntegrated(*step) }},
	}
	ran := 0
	for _, r := range runners {
		if !want(r.name) {
			continue
		}
		res, err := r.run()
		if err != nil {
			log.Fatalf("fig %s: %v", r.name, err)
		}
		fmt.Println(res.String())
		ran++
	}

	if want("ablations") {
		ablations := []runner{
			{"fd-order", func() (fmt.Stringer, error) { return env.FDOrderSweep(*step) }},
			{"atom-size", func() (fmt.Stringer, error) { return env.AtomSizeSweep(*step) }},
			{"workload", func() (fmt.Stringer, error) { return env.WorkloadSweep(60) }},
			{"capacity", func() (fmt.Stringer, error) { return env.CapacitySweep(60) }},
		}
		for _, r := range ablations {
			res, err := r.run()
			if err != nil {
				log.Fatalf("ablation %s: %v", r.name, err)
			}
			fmt.Println(res.String())
			ran++
		}
	}

	if ran == 0 {
		log.Fatalf("unknown -fig %q (want all, 2, 3, 4, 6, synopsis, 7a, 7b, 8, 9, local, ablations)", *fig)
	}
	fmt.Printf("%s\ncompleted %d experiment(s) in %v\n", strings.Repeat("-", 60), ran, time.Since(start).Round(time.Millisecond))
}
