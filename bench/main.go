// Command bench is the benchmark of this repository: four closed-loop
// workloads over real-mode clusters assembled inside this process, the
// end-to-end metrics of catalog.go measured with tracing off, and a traced
// run that derives per-layer metrics from spans recorded around the calls
// the harness makes into each layer. Every answer is verified bit for bit
// against a brute-force oracle. See README.md.
//
//	bash bench/run.sh -workload cold_scan -seed 1            # one untraced run
//	bash bench/run.sh -workload cold_scan -seed 1 -trace 1   # the traced run
//	bash bench/run.sh -list                                  # the catalogue (BENCHMARK.json)
//	bash bench/run.sh -compare a.json,b.json c.json,d.json   # parent runs vs change runs
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"github.com/turbdb/turbdb/internal/cache"
	"github.com/turbdb/turbdb/internal/cluster"
	"github.com/turbdb/turbdb/internal/store"
)

// processStart anchors setup_s: package initialization runs before main.
var processStart = time.Now()

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: the contract with the driver.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// document is the full record of a run, written to the -out file; -compare
// reads these.
type document struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Seconds  float64 `json:"seconds"`
	result
	FailedRatio float64 `json:"failed_ratio"`
	FirstError  string  `json:"first_error,omitempty"`
	// Info holds numbers that explain the run but are not catalogue
	// metrics: op counts, each set-up's time, the cache's view of the run.
	Info     map[string]float64 `json:"info"`
	Notes    map[string]string  `json:"notes,omitempty"`
	SpanFile string             `json:"span_file,omitempty"`
	Env      envInfo            `json:"env"`
}

type envInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	CPUModel   string `json:"cpu_model"`
}

func environment() envInfo {
	e := envInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC: os.Getenv("GOGC"), GoVersion: runtime.Version(), Commit: "unknown", CPUModel: "unknown",
	}
	if e.GOGC == "" {
		e.GOGC = "100"
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				e.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return e
}

// guardEnvironment refuses configurations whose numbers would not compare:
// more runnable threads than processors, or the race detector's slowdown.
func guardEnvironment() error {
	if raceEnabled {
		return errors.New("bench: built with -race; timings under the race detector are meaningless")
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		return fmt.Errorf("bench: GOMAXPROCS %d exceeds the %d processors available", runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	return nil
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (see -list)")
		seed     = flag.Int64("seed", 1, "seed of the generated op list; the dataset is always the same")
		seconds  = flag.Float64("seconds", runSeconds, "length of the timed phase of an untraced run")
		trace    = flag.Int("trace", 0, "1 = the traced run: per-layer metrics from spans and direct-call lanes")
		out      = flag.String("out", "", "file for the full JSON document (default .bench_out/<workload>-seed<n>[-trace].json)")
		traceOut = flag.String("trace-out", "", "file for the spans of a traced run, one JSON object per line (default beside -out)")
		list     = flag.Bool("list", false, "print the catalogue of workloads and metrics, in the form of BENCHMARK.json")
		compare  = flag.Bool("compare", false, "compare two sets of -out documents: -compare a1.json,a2.json b1.json,b2.json")
	)
	flag.Parse()

	switch {
	case *list:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(catalogue()); err != nil {
			fatal(err)
		}
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("bench: -compare takes two comma-separated lists of run documents"))
		}
		if err := compareRuns(os.Stdout, strings.Split(flag.Arg(0), ","), strings.Split(flag.Arg(1), ",")); err != nil {
			fatal(err)
		}
		return
	}

	if err := guardEnvironment(); err != nil {
		fatal(err)
	}
	w, err := specFor(*workload, false)
	if err != nil {
		fatal(err)
	}
	opts := runOptions{seed: *seed, seconds: *seconds, trace: *trace != 0, traceOut: *traceOut}
	if *out == "" {
		suffix := ""
		if opts.trace {
			suffix = "-trace"
		}
		*out = filepath.Join(".bench_out", fmt.Sprintf("%s-seed%d%s.json", w.name, *seed, suffix))
	}
	if opts.trace && opts.traceOut == "" {
		opts.traceOut = strings.TrimSuffix(*out, ".json") + ".spans.jsonl"
	}
	doc, err := runWorkload(context.Background(), w, opts)
	if err != nil {
		fatal(err)
	}
	if err := writeDocument(*out, doc); err != nil {
		fatal(err)
	}
	fmt.Printf("%s seed %d: %d ops, %d failed; full document in %s\n", doc.Workload, doc.Seed, doc.Attempted, doc.Failed, *out)
	if doc.FirstError != "" {
		fmt.Fprintln(os.Stderr, "bench: first failure:", doc.FirstError)
	}
	line, err := json.Marshal(doc.result)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !doc.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

func writeDocument(path string, doc *document) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

type runOptions struct {
	seed     int64
	seconds  float64
	ops      int // timed ops instead of seconds: the smoke tests' hook, not a flag
	trace    bool
	traceOut string
}

// deployment is one set-up of a workload's dataset: the generated source
// and the stores it was ingested into. Systems are assembled over it — one
// for an untraced run, several (untraced, traced, bare) for a traced one.
type deployment struct {
	w       *workloadSpec
	src     *source
	stores  []*store.Store   // loopback workloads
	cluster *cluster.Cluster // in-process workloads

	generateS float64
	ingestS   float64
}

func deploy(w *workloadSpec) (*deployment, error) {
	d := &deployment{w: w}
	t0 := time.Now()
	src, err := newSource(w.n, w.steps)
	if err != nil {
		return nil, err
	}
	d.src, d.generateS = src, time.Since(t0).Seconds()
	return d, nil
}

// ingest loads the dataset into the four node stores.
func (d *deployment) ingest() error {
	t0 := time.Now()
	var err error
	if d.w.sys.http {
		d.stores, err = buildStores(d.src)
	} else {
		d.cluster, err = assembleInProcess(d.src, d.w.sys)
	}
	d.ingestS = time.Since(t0).Seconds()
	return err
}

// system assembles the workload's shape over the deployment. withSched
// false gives the bare-mediator reference of the traced run.
func (d *deployment) system(tr *tracer, withSched bool) (*system, error) {
	cfg := d.w.sys
	cfg.tr = tr
	cfg.sched = cfg.sched && withSched
	if cfg.http {
		return assembleHTTP(d.src, d.stores, cfg)
	}
	return wireInProcess(d.cluster, cfg)
}

// prepare brings a fresh system to the state the timed ops start from: the
// caches of an all-hit workload are filled, then the first warm-up ops of
// the seed's list run (and are verified like any other).
func (r *runner) prepare(ctx context.Context, next func() op) error {
	if r.w.allHits {
		if err := r.warmCaches(ctx); err != nil {
			return err
		}
	}
	if ph := r.replay(ctx, next, r.w.warmup, time.Time{}); ph.failed > 0 {
		return fmt.Errorf("bench: warm-up: %d of %d ops failed: %w", ph.failed, ph.attempted, ph.firstErr)
	}
	return nil
}

func runWorkload(ctx context.Context, w *workloadSpec, opts runOptions) (*document, error) {
	doc := &document{
		Workload: w.name, Seed: opts.seed, Trace: opts.trace, Seconds: opts.seconds,
		Info: make(map[string]float64), Notes: make(map[string]string), Env: environment(),
	}
	doc.Metrics = make(map[string]metricValue)

	// Set-up, from process start. The oracle is built in the middle of it
	// (thresholds come from its sorted norms) and timed apart.
	d, err := deploy(w)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	orc, err := buildOracle(d.src, w.keys, w.fractions)
	if err != nil {
		return nil, err
	}
	oracleS := time.Since(t0).Seconds()
	doc.Info["bench.oracle_s"] = oracleS
	if err := d.ingest(); err != nil {
		return nil, err
	}

	if opts.trace {
		return doc, runTraced(ctx, d, orc, opts, doc)
	}

	// An untraced run: assemble the system, warm it up, and measure one
	// timed phase. setup_s runs from process start to the first timed op,
	// less the oracle's construction.
	sys, err := d.system(nil, true)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	r := &runner{w: w, sys: sys, oracle: orc, dataset: d.src.Name()}
	next := w.newGen(opts.seed)
	if err := r.prepare(ctx, next); err != nil {
		return nil, err
	}
	setupS := time.Since(processStart).Seconds() - oracleS
	doc.Info["synth.generate_s"] = d.generateS
	doc.Info["store.ingest_s"] = d.ingestS

	runtime.GC() // the timed phase starts from a collected heap
	c0 := cacheTotals(sys)
	ph := r.replay(ctx, next, opts.ops, time.Now().Add(time.Duration(opts.seconds*float64(time.Second))))
	c1 := cacheTotals(sys)
	cacheHit := cache.Stats{Hits: c1.Hits - c0.Hits, Misses: c1.Misses - c0.Misses, Evictions: c1.Evictions - c0.Evictions}

	doc.Attempted, doc.Failed = ph.attempted, ph.failed
	doc.Correct = ph.failed == 0 && ph.attempted > 0
	if ph.attempted > 0 {
		doc.FailedRatio = float64(ph.failed) / float64(ph.attempted)
	}
	if ph.firstErr != nil {
		doc.FirstError = ph.firstErr.Error()
	}
	lat := latenciesMS(ph.latencies)
	n := float64(len(lat))
	set := func(name string, v float64) {
		for _, m := range endToEnd {
			if m.Name == name {
				doc.Metrics[name] = metricValue{v, m.Unit}
			}
		}
	}
	set("setup_s", setupS)
	set("query_p50_ms", percentile(lat, 0.50))
	set("query_p95_ms", percentile(lat, 0.95))
	set("peak_rss_mb", peakRSSMB())
	if n > 0 {
		set("throughput_qps", n/ph.wall.Seconds())
		set("cpu_ms_per_query", float64(ph.cpu)/float64(time.Millisecond)/n)
	}
	doc.Info["bench.samples"] = n
	doc.Info["bench.check_s"] = ph.check.Seconds()
	doc.Info["timed_wall_s"] = ph.wall.Seconds()
	doc.Info["shed"] = float64(ph.shed)
	doc.Info["gc_cycles"] = float64(ph.mem.gcCycles)
	if lookups := cacheHit.Hits + cacheHit.Misses; lookups > 0 {
		doc.Info["cache.hit_ratio"] = float64(cacheHit.Hits) / float64(lookups)
		doc.Info["cache.evictions"] = float64(cacheHit.Evictions)
	}
	if w.allHits && cacheHit.Misses != 0 {
		doc.Correct = false
		doc.FirstError = fmt.Sprintf("bench: %d cache misses on the all-hit workload", cacheHit.Misses)
	}

	failed, detail := r.probeUnalignedBox(ctx)
	doc.Info["node.unaligned_box_failed"] = float64(failed)
	if detail != "" {
		doc.Notes["node.unaligned_box_failed"] = detail
	}
	return doc, nil
}
