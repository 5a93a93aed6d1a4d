package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
)

// The lock model shared by lockcheck and goroutinelife. The loader records
// each package into it once, at load time: one declaration walk reads the
// `// guarded by <mu>` annotations, and one body walk per function turns its
// body into an ordered list of lock events, calls and guarded-field
// accesses. Analyzers only read the model.

var guardedByRe = regexp.MustCompile(`guarded by (\w+)`)

// lockMethods are the sync.Mutex / sync.RWMutex methods the model tracks,
// mapped to whether they release the lock.
var lockMethods = map[string]bool{
	"Lock": false, "RLock": false, "TryLock": false, "TryRLock": false,
	"Unlock": true, "RUnlock": true,
}

// lockOp is one ordered event of a function body: an acquisition or release
// of a mutex, a call to a statically resolved function, or an access of a
// `// guarded by` field.
type lockOp struct {
	pos     token.Pos
	mu      *types.Var  // acquire/release
	fn      *types.Func // call
	field   *types.Var  // guarded-field access
	release bool
}

// lockBody is the op list of one function declaration, or of a function
// literal it spawns (launched with `go` or stored), which runs on a lock
// state of its own.
type lockBody struct {
	decl    *ast.FuncDecl
	spawned bool
	ops     []lockOp
}

func (b lockBody) name() string {
	if b.spawned {
		return b.decl.Name.Name + " (func literal)"
	}
	return b.decl.Name.Name
}

// lockFinding is a declaration problem found while recording a package,
// reported by lockcheck. It anchors to the declared variable, not the
// annotation comment, so fixtures can carry their want markers as trailing
// comments.
type lockFinding struct {
	pos token.Pos
	msg string
}

// LockGraph is the module-wide lock model, shared across every package one
// Loader loads (the same sharing pattern as Package.RowKernels).
type LockGraph struct {
	// Names maps every mutex variable seen at a declaration to a display
	// name ("Struct.field" or "pkg.var") for diagnostics.
	Names map[*types.Var]string
	// Acquires maps each function to the locks it may take, directly or
	// through static callees.
	Acquires map[types.Object]map[*types.Var]bool
	// guards maps each `// guarded by` field to its mutex field.
	guards map[*types.Var]*types.Var
	// bodies and findings are per import path.
	bodies   map[string][]lockBody
	findings map[string][]lockFinding
}

// NewLockGraph creates an empty graph.
func NewLockGraph() *LockGraph {
	return &LockGraph{
		Names:    make(map[*types.Var]string),
		Acquires: make(map[types.Object]map[*types.Var]bool),
		guards:   make(map[*types.Var]*types.Var),
		bodies:   make(map[string][]lockBody),
		findings: make(map[string][]lockFinding),
	}
}

// lockName returns the diagnostic label of a mutex variable: its declared
// display name, or its bare name when it was never seen at a declaration.
func (g *LockGraph) lockName(v *types.Var) string {
	if n, ok := g.Names[v]; ok {
		return n
	}
	return v.Name()
}

// isMutexType reports whether t is sync.Mutex, sync.RWMutex, or a pointer
// to either.
func isMutexType(t types.Type) bool {
	return isNamedType(t, "sync", "Mutex") || isNamedType(t, "sync", "RWMutex")
}

// isNamedType reports whether t, through one pointer, is the named type
// pkgPath.name; an empty name matches every named type of the package.
func isNamedType(t types.Type, pkgPath, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && (name == "" || obj.Name() == name)
}

// guardAnnotation extracts the mutex name of a `// guarded by` annotation.
func guardAnnotation(cgs ...*ast.CommentGroup) string {
	for _, cg := range cgs {
		if cg == nil {
			continue
		}
		if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// forEachMutexDecl is the declaration walk: it visits every struct field
// and package-level variable declaration of the package with its variables,
// the name of its owner (the struct type or the package) and the comment
// groups carrying its directives. fields holds the struct's fields by name,
// and is nil for package-level variables.
func forEachMutexDecl(pkg *Package, visit func(vars []*types.Var, owner string, fields map[string]*types.Var, doc, comment *ast.CommentGroup)) {
	defs := func(names []*ast.Ident) []*types.Var {
		var vars []*types.Var
		for _, name := range names {
			if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
				vars = append(vars, v)
			}
		}
		return vars
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !ok {
					return true
				}
				fields := make(map[string]*types.Var)
				for _, f := range st.Fields.List {
					for _, v := range defs(f.Names) {
						fields[v.Name()] = v
					}
				}
				for _, f := range st.Fields.List {
					if vars := defs(f.Names); len(vars) > 0 {
						visit(vars, n.Name.Name, fields, f.Doc, f.Comment)
					}
				}
			case *ast.GenDecl:
				if n.Tok != token.VAR || pkg.Types == nil {
					return true
				}
				for _, spec := range n.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					doc := vs.Doc
					if doc == nil && len(n.Specs) == 1 {
						doc = n.Doc
					}
					// package-level variables only; locals have no docs
					var vars []*types.Var
					for _, v := range defs(vs.Names) {
						if v.Parent() == pkg.Types.Scope() {
							vars = append(vars, v)
						}
					}
					if len(vars) > 0 {
						visit(vars, pkg.Types.Name(), nil, doc, vs.Comment)
					}
				}
			}
			return true
		})
	}
}

// mutexVarOf resolves an expression (s.mu, pkgvar) to the mutex variable it
// denotes, or nil.
func mutexVarOf(pkg *Package, x ast.Expr) *types.Var {
	var id *ast.Ident
	switch x := ast.Unparen(x).(type) {
	case *ast.SelectorExpr:
		id = x.Sel
	case *ast.Ident:
		id = x
	default:
		return nil
	}
	if v, ok := pkg.Info.Uses[id].(*types.Var); ok && isMutexType(v.Type()) {
		return v
	}
	return nil
}

// collectLockOps is the body walk: it returns the body's lock events in
// source order. Function literals invoked or deferred in place run on the
// creator's lock state and are walked inline; literals launched with `go`
// (or merely stored) run concurrently or later and are collected into
// spawned for an independent walk with an empty held set. Deferred Unlock
// calls are dropped: the lock stays held to the end of the function.
func collectLockOps(pkg *Package, body ast.Node, spawned *[]*ast.FuncLit) []lockOp {
	var ops []lockOp
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				*spawned = append(*spawned, lit)
			}
			for _, arg := range n.Call.Args {
				ast.Inspect(arg, walk)
			}
			return false
		case *ast.DeferStmt:
			if sel, ok := n.Call.Fun.(*ast.SelectorExpr); ok && lockMethods[sel.Sel.Name] {
				if mutexVarOf(pkg, sel.X) != nil {
					return false // release at function end: lock held until return
				}
			}
			return true // deferred literals and calls: walk as if in place
		case *ast.FuncLit:
			// Reached outside a go/defer/call-in-place context: the literal
			// is stored and may run at any time, on its own lock state.
			*spawned = append(*spawned, n)
			return false
		case *ast.SelectorExpr:
			if v, ok := pkg.Info.Uses[n.Sel].(*types.Var); ok && pkg.Locks.guards[v] != nil {
				ops = append(ops, lockOp{pos: n.Sel.Pos(), field: v})
			}
		case *ast.CallExpr:
			if lit, ok := n.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, walk) // invoked in place: runs inline
				for _, arg := range n.Args {
					ast.Inspect(arg, walk)
				}
				return false
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if release, ok := lockMethods[sel.Sel.Name]; ok {
					if mu := mutexVarOf(pkg, sel.X); mu != nil {
						ops = append(ops, lockOp{pos: n.Pos(), mu: mu, release: release})
						return true
					}
				}
			}
			if fn := calleeFuncInfo(pkg.Info, n); fn != nil {
				ops = append(ops, lockOp{pos: n.Pos(), fn: fn})
			}
		}
		return true
	}
	ast.Inspect(body, walk)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].pos < ops[j].pos })
	return ops
}

// recordLockGraph registers a freshly loaded package in the module-wide
// model: mutex names and guarded fields with their declaration findings;
// every function body's ops; and per-function acquisition summaries (fixed
// point over the package's internal call graph; callees in dependency
// packages are already summarized). Called by the loader, sequentially,
// before any analysis runs.
func recordLockGraph(pkg *Package, g *LockGraph) {
	finding := func(pos token.Pos, format string, args ...any) {
		g.findings[pkg.ImportPath] = append(g.findings[pkg.ImportPath], lockFinding{pos, fmt.Sprintf(format, args...)})
	}
	forEachMutexDecl(pkg, func(vars []*types.Var, owner string, fields map[string]*types.Var, doc, comment *ast.CommentGroup) {
		for _, v := range vars {
			if isMutexType(v.Type()) {
				g.Names[v] = owner + "." + v.Name()
			}
		}

		guard := guardAnnotation(doc, comment)
		if fields == nil || guard == "" {
			return
		}
		mu, ok := fields[guard]
		switch {
		case isNamedType(vars[0].Type(), "sync/atomic", ""):
			finding(vars[0].Pos(), "%s.%s is a typed atomic but carries a `// guarded by` annotation; atomics bypass the mutex — drop the guard or use a plain field", owner, vars[0].Name())
		case !ok:
			finding(vars[0].Pos(), "guard %q named in annotation is not a field of %s", guard, owner)
		case !isMutexType(mu.Type()):
			finding(vars[0].Pos(), "guard %s.%s is not a sync.Mutex or sync.RWMutex", owner, guard)
		default:
			for _, v := range vars {
				g.guards[v] = mu
			}
		}
	})

	var bodies []lockBody
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			var spawned []*ast.FuncLit
			bodies = append(bodies, lockBody{decl: fd, ops: collectLockOps(pkg, fd.Body, &spawned)})
			for i := 0; i < len(spawned); i++ { // spawned literals can nest further ones
				bodies = append(bodies, lockBody{decl: fd, spawned: true, ops: collectLockOps(pkg, spawned[i].Body, &spawned)})
			}
		}
	}
	g.bodies[pkg.ImportPath] = bodies

	// Fixed point: a function may acquire its direct locks plus everything
	// its static callees may acquire. Spawned literals are excluded — their
	// acquisitions happen on another goroutine's (or a later) lock state.
	for changed := true; changed; {
		changed = false
		for _, b := range bodies {
			obj := pkg.Info.Defs[b.decl.Name]
			if b.spawned || obj == nil {
				continue
			}
			acq := g.Acquires[obj]
			if acq == nil {
				acq = make(map[*types.Var]bool)
				g.Acquires[obj] = acq
			}
			for _, op := range b.ops {
				switch {
				case op.mu != nil && !op.release:
					if !acq[op.mu] {
						acq[op.mu] = true
						changed = true
					}
				case op.fn != nil:
					for mu := range g.Acquires[op.fn] {
						if !acq[mu] {
							acq[mu] = true
							changed = true
						}
					}
				}
			}
		}
	}
}

// releaseLast drops the most recent acquisition of mu from a held stack.
func releaseLast(held []*types.Var, mu *types.Var) []*types.Var {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i] == mu {
			return append(held[:i], held[i+1:]...)
		}
	}
	return held
}
