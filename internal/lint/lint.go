// Package lint implements turbdb-vet, the repository's custom static-
// analysis suite. It is built directly on the standard library's go/parser
// and go/types (no golang.org/x/tools dependency) and ships seven
// repo-specific analyzers:
//
//	lockcheck    — fields annotated `// guarded by <mu>` may only be accessed
//	               by functions that hold that mutex;
//	droppederr   — error results may not be silently discarded (`_ = f()`,
//	               bare calls, blank assignments, defer/go of error-returning
//	               calls) outside an explicit allowlist;
//	ctxpropagate — functions that receive a context.Context must forward it
//	               to blocking callees, and exported functions of the
//	               distributed-path packages that perform I/O must accept one;
//	rowkernel    — functions annotated `//turbdb:rowkernel` must stay
//	               allocation-free: no make/append/new, no map operations, no
//	               defer, no interface conversions, and direct calls only to
//	               other annotated kernels (or the math package);
//	goroutinelife — every `go` statement needs a statically provable
//	               termination/ownership story: the body watches a context
//	               Done channel or is tracked by a sync.WaitGroup whose Wait
//	               is called; WaitGroup misuse (Add inside the tracked
//	               goroutine, Wait under a lock the goroutine needs) is
//	               flagged too (lockcheck and goroutinelife read the one lock
//	               model of locks.go);
//	wirecompat   — json-tagged DTOs in internal/wire declare their frozen v1
//	               field set with `//turbdb:wire-baseline <keys>`; fields
//	               added after the baseline must carry omitempty and a fuzz
//	               seed, and DTO↔internal converters must cover every
//	               exported field (or mark it `//turbdb:wire-local reason`);
//	errclass     — errors created on the distributed path (wire, mediator,
//	               node, sched, faulttol) must be classified: a typed error
//	               implementing Transient()/OverQuota(), or a %w wrap of
//	               one; bare errors.New/fmt.Errorf and %v/%s reformatting
//	               that discards the class are findings.
//
// Findings are suppressed with a `//lint:allow <check>[,<check>] reason`
// comment on the flagged line or on the line directly above it, or with the
// newer `//turbdb:ignore <check> <reason>` form, whose reason is mandatory
// (a reasonless ignore is itself a finding) and is carried into the -json
// report so suppressions stay auditable.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	// TypeErrors collects type-checker complaints; analysis proceeds on a
	// best-effort basis but the driver surfaces these loudly.
	TypeErrors []error
	// RowKernels maps the function objects carrying a //turbdb:rowkernel
	// annotation to true. The map instance is shared across every package
	// one Loader loads (dependencies load first), so analyzers can resolve
	// annotations on callees defined in other packages of the module.
	RowKernels map[types.Object]bool
	// Locks is the module-wide lock model (guarded fields, per-function
	// lock ops and acquisition summaries). Like RowKernels it is shared
	// across every package one Loader loads and populated at load time, so
	// analysis only reads it.
	Locks *LockGraph
}

// Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
	// Suppressed marks findings silenced by a //lint:allow or
	// //turbdb:ignore directive; they do not fail the gate but are carried
	// into machine-readable reports.
	Suppressed bool
	// SuppressReason is the mandatory reason of the //turbdb:ignore
	// directive that silenced this finding (empty for //lint:allow, whose
	// free-text reason is reviewed by humans, not parsed).
	SuppressReason string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Check, d.Message)
}

// Pass gives one analyzer access to one package.
type Pass struct {
	*Package
	check  string
	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.report(Diagnostic{
		Pos:     p.Fset.Position(pos),
		Check:   p.check,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Analyzers returns the full turbdb-vet suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{LockCheck, DroppedErr, CtxPropagate, RowKernel, GoroutineLife, WireCompat, ErrClass}
}

// allowRe matches suppression directives: //lint:allow check1[,check2] reason
var allowRe = regexp.MustCompile(`^lint:allow\s+([a-z][a-z0-9,]*)`)

// ignoreRe matches the newer suppression form: //turbdb:ignore check reason.
// The reason group is optional here so a reasonless directive can be parsed
// and reported as malformed instead of silently not matching.
var ignoreRe = regexp.MustCompile(`^turbdb:ignore\s+([a-z][a-z0-9]*)(?:\s+(\S.*))?$`)

// suppressions maps check name → source line → suppression reason for the
// lines a directive covers: the directive's own line and the line below it
// (so a directive can trail the flagged statement or sit above it).
// malformed collects //turbdb:ignore directives missing their mandatory
// reason; these are findings in their own right.
type suppressions struct {
	byLine    map[string]map[int]string
	malformed []Diagnostic
}

func (s *suppressions) lookup(check string, line int) (reason string, ok bool) {
	reason, ok = s.byLine[check][line]
	return reason, ok
}

func (s *suppressions) add(check string, line int, reason string) {
	if s.byLine[check] == nil {
		if s.byLine == nil {
			s.byLine = make(map[string]map[int]string)
		}
		s.byLine[check] = make(map[int]string)
	}
	s.byLine[check][line] = reason
	s.byLine[check][line+1] = reason
}

// collectSuppressions extracts every //lint:allow and //turbdb:ignore
// directive of the package.
func collectSuppressions(fset *token.FileSet, files []*ast.File) *suppressions {
	sup := &suppressions{byLine: make(map[string]map[int]string)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if m := allowRe.FindStringSubmatch(text); m != nil {
					line := fset.Position(c.Pos()).Line
					for _, check := range strings.Split(m[1], ",") {
						sup.add(check, line, "")
					}
					continue
				}
				if m := ignoreRe.FindStringSubmatch(text); m != nil {
					line := fset.Position(c.Pos()).Line
					if m[2] == "" {
						sup.malformed = append(sup.malformed, Diagnostic{
							Pos:     fset.Position(c.Pos()),
							Check:   "ignore",
							Message: fmt.Sprintf("//turbdb:ignore %s is missing its mandatory reason", m[1]),
						})
						continue
					}
					sup.add(m[1], line, m[2])
				}
			}
		}
	}
	return sup
}

// Analyze runs the given analyzers over one package. It returns the active
// findings, which fail the gate (malformed suppression directives — a
// //turbdb:ignore without a reason — among them); the suppressed ones,
// silenced by a directive and carried into machine-readable reports with
// their reasons. Both slices are sorted by position.
func Analyze(pkg *Package, analyzers []*Analyzer) (active, suppressed []Diagnostic) {
	sup := collectSuppressions(pkg.Fset, pkg.Files)
	active = append(active, sup.malformed...)
	for _, a := range analyzers {
		pass := &Pass{
			Package: pkg,
			check:   a.Name,
			report: func(d Diagnostic) {
				if reason, ok := sup.lookup(d.Check, d.Pos.Line); ok {
					d.Suppressed = true
					d.SuppressReason = reason
					suppressed = append(suppressed, d)
					return
				}
				active = append(active, d)
			},
		}
		a.Run(pass)
	}
	sortDiags(active)
	sortDiags(suppressed)
	return active, suppressed
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
}
