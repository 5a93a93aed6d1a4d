package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Loader parses and type-checks packages of the enclosing module. Packages
// inside the module are type-checked from source by the loader itself (in
// dependency order, lazily); imports outside the module (the standard
// library) are delegated to go/importer's source importer. This keeps the
// tool free of golang.org/x/tools while still giving analyzers full type
// information.
type Loader struct {
	ModuleRoot string
	ModulePath string
	// IncludeTests also loads _test.go files into their packages.
	IncludeTests bool

	fset       *token.FileSet
	std        types.Importer
	pkgs       map[string]*Package
	rowKernels map[types.Object]bool // //turbdb:rowkernel functions, module-wide
	locks      *LockGraph            // the lock model, module-wide
}

// NewLoader locates the module enclosing dir (by walking up to go.mod).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: root,
		ModulePath: modPath,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
		rowKernels: make(map[types.Object]bool),
		locks:      NewLockGraph(),
	}, nil
}

// modulePath reads the module directive from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			p := strings.TrimSpace(rest)
			if unq, err := strconv.Unquote(p); err == nil {
				p = unq
			}
			if p != "" {
				return p, nil
			}
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Load resolves package patterns into loaded packages. Supported patterns:
// "./..." (every package under the module root), a directory path, or a
// directory path ending in "/...".
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs, err := l.resolveDirs(patterns...)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.ModuleRoot, dir)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("lint: %s is outside module %s", dir, l.ModuleRoot)
		}
		ip := l.ModulePath
		if rel != "." {
			ip = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.load(ip)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// resolveDirs expands package patterns into package directories without
// loading anything. A recursive pattern walks every non-hidden,
// non-testdata, non-vendor directory under its root — cmd/ and internal/
// alike — so `turbdb-vet ./...` can never silently drop a package tree.
func (l *Loader) resolveDirs(patterns ...string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		rec := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			rec = true
			pat = rest
			if pat == "" || pat == "." {
				pat = l.ModuleRoot
			}
		}
		if pat == "." {
			pat = l.ModuleRoot
		}
		abs, err := filepath.Abs(pat)
		if err != nil {
			return nil, err
		}
		if !rec {
			add(abs)
			continue
		}
		err = filepath.WalkDir(abs, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != abs && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			if hasGoFiles(path, l.IncludeTests) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

func hasGoFiles(dir string, includeTests bool) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && includeFile(dir, e.Name(), includeTests) {
			return true
		}
	}
	return false
}

// includeFile reports whether a file participates in the package on the
// current platform: Go source, not hidden, test files only on request, and
// build constraints (//go:build lines, GOOS/GOARCH name suffixes) satisfied.
// A file excluded by tags must never reach the type checker, where its
// legitimately conflicting declarations would poison the whole package.
func includeFile(dir, name string, includeTests bool) bool {
	if !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
		return false
	}
	if !includeTests && strings.HasSuffix(name, "_test.go") {
		return false
	}
	ok, err := build.Default.MatchFile(dir, name)
	return err == nil && ok
}

// dirFor maps a module-internal import path to its directory.
func (l *Loader) dirFor(importPath string) string {
	if importPath == l.ModulePath {
		return l.ModuleRoot
	}
	rel := strings.TrimPrefix(importPath, l.ModulePath+"/")
	return filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
}

func (l *Loader) isInternal(importPath string) bool {
	return importPath == l.ModulePath || strings.HasPrefix(importPath, l.ModulePath+"/")
}

// load parses and type-checks one module-internal package (cached).
func (l *Loader) load(importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("lint: import cycle through %s", importPath)
		}
		return pkg, nil
	}
	l.pkgs[importPath] = nil // in-progress marker for cycle detection

	dir := l.dirFor(importPath)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", importPath, err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !includeFile(dir, e.Name(), l.IncludeTests) {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	var files []*ast.File
	pkgName := ""
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		// an external test package (package foo_test) shares the directory;
		// keep only files of the primary package
		if pkgName == "" && !strings.HasSuffix(f.Name.Name, "_test") {
			pkgName = f.Name.Name
		}
		files = append(files, f)
	}
	if pkgName != "" {
		kept := files[:0]
		for _, f := range files {
			if f.Name.Name == pkgName {
				kept = append(kept, f)
			}
		}
		files = kept
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}

	// load module-internal dependencies first
	for _, f := range files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if l.isInternal(path) {
				if _, err := l.load(path); err != nil {
					return nil, err
				}
			}
		}
	}

	pkg := &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       l.fset,
		Files:      files,
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
		},
	}
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	//lint:allow droppederr type errors are collected via conf.Error above
	tpkg, _ := conf.Check(importPath, l.fset, files, pkg.Info)
	pkg.Types = tpkg
	pkg.RowKernels = l.rowKernels
	l.recordRowKernels(pkg)
	pkg.Locks = l.locks
	recordLockGraph(pkg, l.locks)
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// recordRowKernels registers the package's //turbdb:rowkernel-annotated
// functions in the loader-wide map. Dependencies load before their
// importers, so by the time a package is analyzed the annotations of every
// callee it can name are already resolved.
func (l *Loader) recordRowKernels(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !hasRowKernelDirective(fd.Doc) {
				continue
			}
			if obj := pkg.Info.Defs[fd.Name]; obj != nil {
				l.rowKernels[obj] = true
			}
		}
	}
}

// hasRowKernelDirective reports whether a doc comment group carries the
// //turbdb:rowkernel annotation (its own line, optionally with trailing
// commentary after a space).
func hasRowKernelDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		if text == "turbdb:rowkernel" || strings.HasPrefix(text, "turbdb:rowkernel ") {
			return true
		}
	}
	return false
}

// loaderImporter resolves imports during type checking: module-internal
// packages come from the loader's own cache, everything else from the
// standard library source importer.
type loaderImporter Loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(li)
	if l.isInternal(path) {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}
