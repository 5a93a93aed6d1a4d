// Command turbdb-vet runs the repository's custom static-analysis suite
// (internal/lint): lockcheck, droppederr, ctxpropagate, rowkernel,
// goroutinelife, and the protocol pair wirecompat and errclass. It is part
// of the standard check gate (scripts/check.sh, CI) and exits non-zero when
// any finding is reported: 1 for findings, 2 for type errors or bad flags.
//
// Usage:
//
//	turbdb-vet [-checks lockcheck,droppederr] [-tests] [-json] [packages]
//
// Packages default to ./... relative to the enclosing module. Suppress a
// deliberate finding with a `//lint:allow <check> <reason>` comment on the
// flagged line or the line above it, or with `//turbdb:ignore <check>
// <reason>` — the reason is mandatory there and is carried into the -json
// report, so every suppression stays auditable.
//
// With -json the machine-readable report (active findings, suppressed
// findings with their reasons, type errors, load and total wall-clock
// times) goes to stdout and the human-readable findings to stderr, so
// `turbdb-vet -json ./... > report.json` works as a CI artifact step
// without losing the readable log.
//
// Packages type-check in dependency order through one shared loader, which
// is almost all of a run's time; the analyzers then run over the loaded
// packages one after another.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
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
	// LoadMS and ElapsedMS are end-to-end wall-clock milliseconds for the
	// load (parse + type-check) phase and the whole run.
	LoadMS    float64 `json:"load_ms"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, analyzes the packages they name
// from the module enclosing the working directory, and returns the exit
// code.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("turbdb-vet", flag.ContinueOnError)
	flags.SetOutput(stderr)
	checks := flags.String("checks", "", "comma-separated subset of checks to run (default: all)")
	tests := flags.Bool("tests", false, "also analyze _test.go files")
	list := flags.Bool("list", false, "list available checks and exit")
	jsonOut := flags.Bool("json", false, "write a machine-readable report to stdout (human log moves to stderr)")
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	start := time.Now()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
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
				fmt.Fprintf(stderr, "turbdb-vet: unknown check %q\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flags.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "turbdb-vet:", err)
		return 2
	}
	loader, err := lint.NewLoader(wd)
	if err != nil {
		fmt.Fprintln(stderr, "turbdb-vet:", err)
		return 2
	}
	loader.IncludeTests = *tests
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "turbdb-vet:", err)
		return 2
	}
	loadTime := time.Since(start)

	humanOut := stdout
	if *jsonOut {
		humanOut = stderr
	}
	exit := 0
	report := jsonReport{
		Findings:   []jsonFinding{},
		Suppressed: []jsonFinding{},
		TypeErrors: []string{},
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(stderr, "turbdb-vet: %s: type error: %v\n", pkg.ImportPath, terr)
			report.TypeErrors = append(report.TypeErrors, fmt.Sprintf("%s: %v", pkg.ImportPath, terr))
			exit = 2
		}
		active, suppressed := lint.Analyze(pkg, analyzers)
		for _, d := range active {
			fmt.Fprintln(humanOut, d)
			report.Findings = append(report.Findings, toJSON(d, wd))
			if exit == 0 {
				exit = 1
			}
		}
		for _, d := range suppressed {
			report.Suppressed = append(report.Suppressed, toJSON(d, wd))
		}
	}
	report.LoadMS = float64(loadTime) / float64(time.Millisecond)
	report.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(stderr, "turbdb-vet:", err)
			return 2
		}
	}
	return exit
}

// toJSON reports d with its file relative to dir, the directory the tool
// runs in, so two checkouts of one commit write equal reports.
func toJSON(d lint.Diagnostic, dir string) jsonFinding {
	file := d.Pos.Filename
	if rel, err := filepath.Rel(dir, file); err == nil {
		file = rel
	}
	return jsonFinding{
		File:    file,
		Line:    d.Pos.Line,
		Column:  d.Pos.Column,
		Check:   d.Check,
		Message: d.Message,
		Reason:  d.SuppressReason,
	}
}
