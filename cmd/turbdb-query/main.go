// Command turbdb-query is the CLI client of a turbdb mediator service:
// threshold queries, PDF histograms and top-k queries against a running
// deployment.
//
// Usage:
//
//	turbdb-query -mediator http://127.0.0.1:7080 threshold -field vorticity -value 20 -step 0
//	turbdb-query -mediator http://127.0.0.1:7080 pdf -field vorticity -bins 10 -width 5
//	turbdb-query -mediator http://127.0.0.1:7080 topk -field qcriterion -k 20
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"

	turbdb "github.com/turbdb/turbdb"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: turbdb-query -mediator URL <command> [flags]

commands:
  threshold  -field F -value V [-step N] [-order 2|4|6|8] [-limit N] [-trace] [-tenant T]
  pdf        -field F -bins N -width W [-min M] [-step N] [-tenant T]
  topk       -field F -k N [-step N] [-tenant T]
  info

-trace prints the query's distributed span tree (mediator stages plus
per-node scan, cache and halo timings) to stderr.

-tenant bills the query to that resource pool on a mediator running the
concurrent scheduler; over-quota queries fail with HTTP 429 — back off
and retry.

-proto frame negotiates the binary streaming response encoding (smaller,
faster to parse); services without it transparently answer JSON. -trace
keeps the encoding: the span tree rides a spans frame.
`)
	os.Exit(2)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("turbdb-query: ")

	mediatorURL := flag.String("mediator", "http://127.0.0.1:7080", "mediator service URL")
	proto := flag.String("proto", "json", `response encoding: "json" or "frame" (binary; falls back to JSON against older services)`)
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
	}

	db, err := turbdb.OpenRemote(*mediatorURL, turbdb.WithProtocol(*proto))
	if err != nil {
		log.Fatal(err)
	}

	cmd := flag.Arg(0)
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	field := fs.String("field", "vorticity", "field name")
	step := fs.Int("step", 0, "time-step")
	order := fs.Int("order", 0, "finite-difference order (0 = default 4)")
	value := fs.Float64("value", 0, "threshold value")
	limit := fs.Int("limit", 0, "result point limit (0 = default 10⁶)")
	bins := fs.Int("bins", 10, "PDF bins")
	width := fs.Float64("width", 1, "PDF bin width")
	minv := fs.Float64("min", 0, "PDF first bin lower edge")
	k := fs.Int("k", 10, "top-k size")
	trace := fs.Bool("trace", false, "print the distributed span tree of the query to stderr")
	tenant := fs.String("tenant", "", "resource pool the query is billed to (scheduler deployments)")
	_ = fs.Parse(flag.Args()[1:]) //lint:allow droppederr ExitOnError flag set exits on bad input

	switch cmd {
	case "info":
		fmt.Printf("dataset %s, grid %d³\n", db.Dataset(), db.GridN())

	case "threshold":
		pts, stats, err := db.Threshold(turbdb.ThresholdQuery{
			Field: *field, Timestep: *step, Threshold: *value,
			FDOrder: *order, Limit: *limit, Trace: *trace, Tenant: *tenant,
		})
		if errors.Is(err, turbdb.ErrThresholdTooLow) {
			log.Fatalf("threshold too low: %v", err)
		}
		var overQuota *turbdb.ErrOverQuota
		if errors.As(err, &overQuota) {
			log.Fatalf("shed: %v — back off and retry", err)
		}
		if err != nil {
			log.Fatal(err)
		}
		if stats.TraceTree != "" {
			fmt.Fprint(os.Stderr, stats.TraceTree)
		}
		fmt.Printf("# %d points with ‖%s‖ ≥ %g at step %d (node time %v)\n",
			len(pts), *field, *value, *step, stats.Total)
		for _, p := range pts {
			fmt.Printf("%d %d %d %.6g\n", p.X, p.Y, p.Z, p.Value)
		}

	case "pdf":
		counts, err := db.PDF(turbdb.PDFQuery{
			Field: *field, Timestep: *step, Bins: *bins, Min: *minv, Width: *width,
			FDOrder: *order, Tenant: *tenant,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("# PDF of ‖%s‖ at step %d\n", *field, *step)
		for i, c := range counts {
			lo := *minv + float64(i)*(*width)
			fmt.Printf("[%g,%g) %d\n", lo, lo+*width, c)
		}

	case "topk":
		pts, err := db.TopK(turbdb.TopKQuery{
			Field: *field, Timestep: *step, K: *k, FDOrder: *order,
			Tenant: *tenant,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("# top %d of ‖%s‖ at step %d\n", len(pts), *field, *step)
		for _, p := range pts {
			fmt.Printf("%d %d %d %.6g\n", p.X, p.Y, p.Z, p.Value)
		}

	default:
		usage()
	}
}
