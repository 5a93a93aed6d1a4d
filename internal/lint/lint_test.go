package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// Fixture packages live under testdata/src (its own tiny module, so the
// loader resolves them like any other module). Expected findings are marked
// in the fixture source as:
//
//	someExpr // want `regex matched against the diagnostic message`
//
// Every diagnostic must be matched by a want on its line, and every want
// must be matched by a diagnostic — so the fixtures prove both detection
// (positive cases) and suppression/exemption (negative cases stay silent).
var wantRe = regexp.MustCompile("want `([^`]+)`")

// fixtureExpectations scans a fixture directory for want markers, keyed by
// (file base name, line).
func fixtureExpectations(t *testing.T, dir string) map[string][]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	wants := make(map[string][]string)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				key := keyFor(e.Name(), i+1)
				wants[key] = append(wants[key], m[1])
			}
		}
	}
	return wants
}

func keyFor(file string, line int) string {
	return fmt.Sprintf("%s:%d", file, line)
}

func analyzerByName(t *testing.T, name string) *Analyzer {
	t.Helper()
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no analyzer named %q", name)
	return nil
}

// fixtureLoader is the one Loader every test shares: fixture packages are
// independent, and reusing the loader reuses its (expensive) source-imported
// standard library across cases.
var fixtureLoader = sync.OnceValues(func() (*Loader, error) {
	return NewLoader(filepath.Join("testdata", "src"))
})

// loadFixture loads one type-clean fixture package from testdata/src; every
// test that previously carried its own NewLoader+Load+arity-check block goes
// through here.
func loadFixture(t *testing.T, dir string) *Package {
	t.Helper()
	loader, err := fixtureLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(filepath.Join("testdata", "src", dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	for _, terr := range pkgs[0].TypeErrors {
		t.Errorf("fixture %s does not type-check: %v", dir, terr)
	}
	return pkgs[0]
}

func TestAnalyzers(t *testing.T) {
	root := filepath.Join("testdata", "src")
	cases := []struct {
		name string // analyzer to run
		dir  string // fixture package, relative to testdata/src
	}{
		{"lockcheck", "lockcheck"},
		{"lockcheck", "lockatomic"},
		{"droppederr", "droppederr"},
		{"ctxpropagate", "ctxpropagate"},
		{"ctxpropagate", filepath.Join("internal", "wire")},
		{"rowkernel", "rowkernel"},
		{"rowkernel", filepath.Join("internal", "stencil")},
		{"rowkernel", filepath.Join("internal", "field")},
		{"rowkernel", filepath.Join("internal", "obs")},
		{"goroutinelife", "goroutinelife"},
		{"wirecompat", filepath.Join("internal", "wire", "compat")},
		{"errclass", filepath.Join("internal", "mediator")},
		{"errclass", filepath.Join("internal", "faulttol")},
	}
	for _, tc := range cases {
		name := tc.name
		t.Run(name+"/"+filepath.Base(tc.dir), func(t *testing.T) {
			dir := filepath.Join(root, tc.dir)
			pkg := loadFixture(t, tc.dir)
			diags, _ := Analyze(pkg, []*Analyzer{analyzerByName(t, name)})
			wants := fixtureExpectations(t, dir)
			matched := make(map[string]int)
			for _, d := range diags {
				key := keyFor(filepath.Base(d.Pos.Filename), d.Pos.Line)
				exps := wants[key]
				ok := false
				for i, exp := range exps {
					if i < matched[key] {
						continue
					}
					if regexp.MustCompile(exp).MatchString(d.Message) {
						matched[key]++
						ok = true
						break
					}
				}
				if !ok {
					t.Errorf("unexpected diagnostic at %s: %s", key, d.Message)
				}
			}
			for key, exps := range wants {
				if matched[key] < len(exps) {
					t.Errorf("missing diagnostic at %s: want %q, matched %d of %d",
						key, exps, matched[key], len(exps))
				}
			}
			if len(diags) == 0 {
				t.Error("fixture produced no diagnostics at all; detection is broken")
			}
		})
	}
}

// TestIgnoreDirective pins the //turbdb:ignore contract: a well-formed
// directive suppresses the finding and carries its mandatory reason into the
// suppressed report; a reasonless directive is itself an active finding and
// suppresses nothing.
func TestIgnoreDirective(t *testing.T) {
	pkg := loadFixture(t, "ignorefix")
	active, suppressed := Analyze(pkg, []*Analyzer{analyzerByName(t, "droppederr")})

	if len(suppressed) != 1 {
		t.Fatalf("suppressed = %v, want exactly one finding", suppressed)
	}
	s := suppressed[0]
	if !s.Suppressed || s.Check != "droppederr" {
		t.Errorf("suppressed finding = %+v, want Suppressed droppederr", s)
	}
	if want := "best-effort cleanup, a failure changes nothing"; s.SuppressReason != want {
		t.Errorf("SuppressReason = %q, want %q", s.SuppressReason, want)
	}

	if len(active) != 2 {
		t.Fatalf("active = %v, want the malformed directive plus the unsuppressed dropped error", active)
	}
	var sawMalformed, sawDropped bool
	for _, d := range active {
		switch d.Check {
		case "ignore":
			sawMalformed = true
			if !strings.Contains(d.Message, "missing its mandatory reason") {
				t.Errorf("malformed-directive message = %q", d.Message)
			}
		case "droppederr":
			sawDropped = true
		}
	}
	if !sawMalformed || !sawDropped {
		t.Errorf("active findings %v missing malformed directive or droppederr", active)
	}
}

// TestAllowDirectiveScope pins the suppression contract: a directive covers
// its own line and the line directly below, nothing else.
func TestAllowDirectiveScope(t *testing.T) {
	pkg := loadFixture(t, "droppederr")
	sup := collectSuppressions(pkg.Fset, pkg.Files)
	lines := sup.byLine["droppederr"]
	if len(lines) == 0 {
		t.Fatal("no droppederr allow directives found in fixture")
	}
	for line := range lines {
		if _, ok := sup.lookup("droppederr", line); !ok {
			t.Errorf("line %d marked but not allowed", line)
		}
	}
	if sup.byLine["lockcheck"] != nil {
		t.Error("droppederr directives leaked into lockcheck's allow set")
	}
}
