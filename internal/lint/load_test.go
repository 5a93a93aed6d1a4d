package lint

import (
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// loadFixtureWith loads one fixture package through a fresh, specially
// configured loader; unlike loadFixture it tolerates type errors (package
// broken depends on that) and can include _test.go files. Everything else
// goes through loadFixture's shared loader.
func loadFixtureWith(t *testing.T, includeTests bool, dir string) *Package {
	t.Helper()
	loader, err := NewLoader(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	loader.IncludeTests = includeTests
	pkgs, err := loader.Load(filepath.Join("testdata", "src", dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	return pkgs[0]
}

// fileNames returns the base names of a package's parsed files.
func fileNames(pkg *Package) []string {
	var names []string
	for _, f := range pkg.Files {
		names = append(names, filepath.Base(pkg.Fset.Position(f.Pos()).Filename))
	}
	return names
}

// TestLoadExcludesConstrainedFiles checks that files ruled out by build
// constraints (//go:build lines and GOOS name suffixes) never reach the type
// checker: buildtags re-declares the same constant in two excluded files, so
// any leak shows up as a redeclaration error.
func TestLoadExcludesConstrainedFiles(t *testing.T) {
	if runtime.GOOS == "plan9" {
		t.Skip("fixture uses a plan9 GOOS suffix as the excluded file")
	}
	pkg := loadFixture(t, "buildtags")
	if len(pkg.TypeErrors) != 0 {
		t.Fatalf("type errors from excluded files leaking in: %v", pkg.TypeErrors)
	}
	names := fileNames(pkg)
	if len(names) != 1 || names[0] != "buildtags.go" {
		t.Fatalf("loaded files = %v, want [buildtags.go]", names)
	}
}

// TestLoadTestOnlyPackage checks both sides of the IncludeTests switch on a
// package whose only file is a _test.go file: a clean error without tests,
// a normal load with them.
func TestLoadTestOnlyPackage(t *testing.T) {
	loader, err := NewLoader(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "src", "testonly")
	if _, err := loader.Load(dir); err == nil {
		t.Fatal("IncludeTests=false: want an error for a _test.go-only package, got nil")
	} else if !strings.Contains(err.Error(), "no Go files") {
		t.Fatalf("IncludeTests=false: error = %q, want mention of missing Go files", err)
	}

	pkg := loadFixtureWith(t, true, "testonly")
	if len(pkg.TypeErrors) != 0 {
		t.Fatalf("IncludeTests=true: unexpected type errors: %v", pkg.TypeErrors)
	}
	names := fileNames(pkg)
	if len(names) != 1 || names[0] != "only_test.go" {
		t.Fatalf("IncludeTests=true: loaded files = %v, want [only_test.go]", names)
	}
}

// TestLoadTypeErrorPackage checks that a package that fails type checking
// still loads (TypeErrors populated, no hard error) and that running the
// full analyzer suite over its partial type information does not panic.
func TestLoadTypeErrorPackage(t *testing.T) {
	pkg := loadFixtureWith(t, false, "broken")
	if len(pkg.TypeErrors) == 0 {
		t.Fatal("want TypeErrors for package broken, got none")
	}
	found := false
	for _, e := range pkg.TypeErrors {
		if strings.Contains(e.Error(), "undefinedIdentifier") {
			found = true
		}
	}
	if !found {
		t.Fatalf("TypeErrors = %v, want one mentioning undefinedIdentifier", pkg.TypeErrors)
	}
	// Best-effort analysis over the broken package must not panic.
	active, suppressed := Analyze(pkg, Analyzers())
	if len(suppressed) != 0 {
		t.Fatalf("unexpected suppressed findings: %v", suppressed)
	}
	_ = active // findings on a broken package are best-effort; only no-panic is contractual
}

// TestResolveDirsCoversCmd pins the analyzer run set: resolving ./...
// from the real module root must include every cmd/ package alongside
// internal/, and never a testdata directory — so the check.sh/CI
// invocation `turbdb-vet ./...` sweeps the command-line tools too.
func TestResolveDirsCoversCmd(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := loader.resolveDirs("./...")
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]bool, len(dirs))
	for _, dir := range dirs {
		rel, err := filepath.Rel(loader.ModuleRoot, dir)
		if err != nil {
			t.Fatal(err)
		}
		rel = filepath.ToSlash(rel)
		if strings.Contains(rel, "testdata") {
			t.Errorf("resolveDirs included a testdata directory: %s", rel)
		}
		got[rel] = true
	}
	for _, want := range []string{
		"cmd/turbdb-server", "cmd/turbdb-mediator", "cmd/turbdb-query",
		"cmd/turbdb-bench", "cmd/turbdb-gen", "cmd/turbdb-vet",
		"internal/wire", "internal/lint",
	} {
		if !got[want] {
			t.Errorf("resolveDirs(./...) is missing %s", want)
		}
	}
}
