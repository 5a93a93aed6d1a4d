// Command turbdb-vet runs the repository's custom static-analysis suite
// (internal/lint): lockcheck, droppederr, ctxpropagate, rowkernel, the
// concurrency pair lockorder and goroutinelife, and the protocol pair
// wirecompat and errclass. It is part of the standard check gate
// (scripts/check.sh, CI) and exits non-zero when any finding is reported:
// 1 for findings, 2 for type errors or bad flags.
//
// Usage:
//
//	turbdb-vet [-checks lockcheck,droppederr] [-tests] [-json] [-timings] [packages]
//
// Packages default to ./... relative to the enclosing module. Suppress a
// deliberate finding with a `//lint:allow <check> <reason>` comment on the
// flagged line or the line above it, or with `//turbdb:ignore <check>
// <reason>` — the reason is mandatory there and is carried into the -json
// report, so every suppression stays auditable.
//
// With -json the machine-readable report (active findings, suppressed
// findings with their reasons, type errors, per-analyzer timings) goes to
// stdout and the human-readable findings to stderr, so
// `turbdb-vet -json ./... > report.json` works as a CI artifact step
// without losing the readable log.
//
// -timings prints a per-analyzer wall-clock table (CPU time summed across
// packages, slowest first) plus the end-to-end load and analysis times.
//
// Analysis note: type-checking is sequential (packages type-check in
// dependency order through one shared loader), but the analyzers themselves
// run over the loaded packages in parallel, so the gate does not slow down
// linearly as the suite grows.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/turbdb/turbdb/internal/lint"
)

// jsonFinding is one diagnostic in the -json report.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Check   string `json:"check"`
	Message string `json:"message"`
	// Reason is the mandatory justification of the //turbdb:ignore
	// directive, present only on suppressed findings.
	Reason string `json:"reason,omitempty"`
}

// jsonReport is the full -json output of one run.
type jsonReport struct {
	Findings   []jsonFinding `json:"findings"`
	Suppressed []jsonFinding `json:"suppressed"`
	TypeErrors []string      `json:"type_errors"`
	// TimingsMS is per-analyzer CPU time in milliseconds, summed across
	// packages (parallel passes overlap, so the sum can exceed ElapsedMS).
	TimingsMS map[string]float64 `json:"timings_ms,omitempty"`
	// LoadMS and ElapsedMS are end-to-end wall-clock milliseconds for the
	// load (parse + type-check) phase and the whole run.
	LoadMS    float64 `json:"load_ms"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// pkgResult is the analysis outcome of one package.
type pkgResult struct {
	importPath string
	typeErrors []error
	active     []lint.Diagnostic
	suppressed []lint.Diagnostic
	timings    map[string]time.Duration
}

func main() {
	checks := flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
	tests := flag.Bool("tests", false, "also analyze _test.go files")
	list := flag.Bool("list", false, "list available checks and exit")
	jsonOut := flag.Bool("json", false, "write a machine-readable report to stdout (human log moves to stderr)")
	timings := flag.Bool("timings", false, "print a per-analyzer timing table to stderr")
	flag.Parse()
	start := time.Now()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *checks != "" {
		byName := make(map[string]*lint.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*checks, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "turbdb-vet: unknown check %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "turbdb-vet:", err)
		os.Exit(2)
	}
	loader.IncludeTests = *tests
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "turbdb-vet:", err)
		os.Exit(2)
	}
	loadTime := time.Since(start)

	results := analyzeParallel(pkgs, analyzers)

	humanOut := os.Stdout
	if *jsonOut {
		humanOut = os.Stderr
	}
	exit := 0
	report := jsonReport{
		Findings:   []jsonFinding{},
		Suppressed: []jsonFinding{},
		TypeErrors: []string{},
	}
	for _, res := range results {
		for _, terr := range res.typeErrors {
			fmt.Fprintf(os.Stderr, "turbdb-vet: %s: type error: %v\n", res.importPath, terr)
			report.TypeErrors = append(report.TypeErrors, fmt.Sprintf("%s: %v", res.importPath, terr))
			exit = 2
		}
		for _, d := range res.active {
			fmt.Fprintln(humanOut, d)
			report.Findings = append(report.Findings, toJSON(d))
			if exit == 0 {
				exit = 1
			}
		}
		for _, d := range res.suppressed {
			report.Suppressed = append(report.Suppressed, toJSON(d))
		}
	}

	elapsed := time.Since(start)
	perCheck := make(map[string]time.Duration)
	for _, res := range results {
		for name, d := range res.timings {
			perCheck[name] += d
		}
	}
	report.TimingsMS = make(map[string]float64, len(perCheck))
	for name, d := range perCheck {
		report.TimingsMS[name] = float64(d) / float64(time.Millisecond)
	}
	report.LoadMS = float64(loadTime) / float64(time.Millisecond)
	report.ElapsedMS = float64(elapsed) / float64(time.Millisecond)
	if *timings {
		names := make([]string, 0, len(perCheck))
		for name := range perCheck {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool { return perCheck[names[i]] > perCheck[names[j]] })
		fmt.Fprintf(os.Stderr, "turbdb-vet: load %v, total %v (%d packages)\n", loadTime.Round(time.Millisecond), elapsed.Round(time.Millisecond), len(pkgs))
		for _, name := range names {
			fmt.Fprintf(os.Stderr, "  %-14s %8v\n", name, perCheck[name].Round(time.Millisecond))
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "turbdb-vet:", err)
			os.Exit(2)
		}
	}
	os.Exit(exit)
}

// analyzeParallel fans the analyzer suite out over the loaded packages,
// preserving input order in the results. Loading already happened (and with
// it all cross-package dependency work); each analysis pass only reads its
// package plus the shared annotation registry, so passes are independent.
func analyzeParallel(pkgs []*lint.Package, analyzers []*lint.Analyzer) []pkgResult {
	results := make([]pkgResult, len(pkgs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, pkg := range pkgs {
		wg.Add(1)
		go func(i int, pkg *lint.Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			active, suppressed, timings := lint.Analyze(pkg, analyzers)
			results[i] = pkgResult{
				importPath: pkg.ImportPath,
				typeErrors: pkg.TypeErrors,
				active:     active,
				suppressed: suppressed,
				timings:    timings,
			}
		}(i, pkg)
	}
	wg.Wait()
	return results
}

func toJSON(d lint.Diagnostic) jsonFinding {
	return jsonFinding{
		File:    d.Pos.Filename,
		Line:    d.Pos.Line,
		Column:  d.Pos.Column,
		Check:   d.Check,
		Message: d.Message,
		Reason:  d.SuppressReason,
	}
}
