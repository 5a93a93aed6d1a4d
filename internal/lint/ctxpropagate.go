package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxPropagate turns the repository's context-threading convention (PR 2's
// fault-tolerance contract: every distributed call is cancellable) into a
// compile-gate rule. It reports two classes of violation:
//
//  1. Inside any function that receives a context.Context, a call to a known
//     blocking operation that does not forward that context: passing
//     context.Background()/context.TODO()/nil to a callee that accepts a
//     context, calling time.Sleep (uncancellable by construction; use a
//     timer plus select on ctx.Done()), building requests with
//     http.NewRequest instead of http.NewRequestWithContext, the context-
//     free net/http convenience calls (http.Get, (*http.Client).Post, …),
//     and bare channel receives outside a select (which cannot observe
//     cancellation).
//
//  2. In the distributed-path packages (internal/mediator, internal/node,
//     internal/wire), an exported function that performs blocking I/O —
//     detected as a call whose callee accepts a context.Context, or one of
//     the known blocking operations above — while accepting no
//     context.Context parameter itself. Such a function is a dead end for
//     cancellation: its callers cannot bound it. (A function literal in
//     it that declares its own context is not: it is checked under rule 1.)
//
// The forwarding check is a per-function dataflow approximation: a context
// counts as forwarded when the argument is (derived from) any context in
// scope — the parameter itself, or a variable assigned from a call that was
// fed one (context.WithTimeout(ctx, …) and friends).
var CtxPropagate = &Analyzer{
	Name: "ctxpropagate",
	Doc:  "verify context.Context is accepted and forwarded on every blocking path",
	Run:  runCtxPropagate,
}

// ctxRequiredPkgs are the distributed-path packages (import-path suffixes)
// whose exported functions must accept a context when they perform I/O.
var ctxRequiredPkgs = []string{
	"internal/mediator",
	"internal/node",
	"internal/wire",
}

// httpNoCtxFuncs are package-level net/http helpers that hard-code
// context.Background underneath.
var httpNoCtxFuncs = map[string]string{
	"Get":        "use http.NewRequestWithContext + client.Do",
	"Head":       "use http.NewRequestWithContext + client.Do",
	"Post":       "use http.NewRequestWithContext + client.Do",
	"PostForm":   "use http.NewRequestWithContext + client.Do",
	"NewRequest": "use http.NewRequestWithContext",
}

// httpClientNoCtxMethods are (*http.Client) convenience methods that cannot
// carry a caller context.
var httpClientNoCtxMethods = map[string]bool{
	"Get": true, "Head": true, "Post": true, "PostForm": true,
}

func runCtxPropagate(pass *Pass) {
	required := pkgRequiresCtx(pass.ImportPath)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ctxVars := ctxParams(pass, fd.Type)
			if len(ctxVars) > 0 {
				checkCtxFlow(pass, fd.Body, fd.Name.Name, ctxVars)
			} else if required && fd.Name.IsExported() {
				checkExportedNeedsCtx(pass, fd)
			}
		}
	}
}

func pkgRequiresCtx(importPath string) bool {
	for _, suffix := range ctxRequiredPkgs {
		if strings.HasSuffix(importPath, suffix) {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// ctxParams collects the context.Context parameters of a function type.
func ctxParams(pass *Pass, ft *ast.FuncType) map[*types.Var]bool {
	vars := make(map[*types.Var]bool)
	if ft.Params == nil {
		return vars
	}
	for _, f := range ft.Params.List {
		for _, name := range f.Names {
			if v, ok := pass.Info.Defs[name].(*types.Var); ok && isContextType(v.Type()) {
				vars[v] = true
			}
		}
	}
	return vars
}

// calleeFunc resolves a call to its static *types.Func, or nil for dynamic
// calls and conversions.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	return calleeFuncInfo(pass.Info, call)
}

// calleeFuncInfo is calleeFunc for callers that hold only a types.Info
// (the loader's record passes, which run before any Pass exists).
func calleeFuncInfo(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// callSignature returns the signature of the called expression (static or
// dynamic), or nil for conversions and builtins.
func callSignature(pass *Pass, call *ast.CallExpr) *types.Signature {
	tv, ok := pass.Info.Types[call.Fun]
	if !ok || tv.IsType() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// isPkgFunc reports whether fn is the named function of the named package.
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// recvNamed returns the named type of fn's receiver (through pointers).
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// blockingNoCtxCall classifies calls that block with no way to thread a
// context; it returns a non-empty remedy string for them.
func blockingNoCtxCall(pass *Pass, call *ast.CallExpr) string {
	fn := calleeFunc(pass, call)
	if fn == nil {
		return ""
	}
	if isPkgFunc(fn, "time", "Sleep") {
		return "time.Sleep cannot be canceled; use a timer and select on ctx.Done()"
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "net/http" {
		if recv := recvNamed(fn); recv != nil {
			if recv.Obj().Name() == "Client" && httpClientNoCtxMethods[fn.Name()] {
				return "use http.NewRequestWithContext + client.Do"
			}
		} else if remedy, ok := httpNoCtxFuncs[fn.Name()]; ok {
			return remedy
		}
	}
	return ""
}

// checkCtxFlow walks the body of a function holding the contexts in ctxVars
// and reports blocking calls that sidestep them. Nested function literals
// that declare their own context parameter start a fresh scope; other
// literals inherit the enclosing contexts (closures run on the creator's
// cancellation domain).
func checkCtxFlow(pass *Pass, body ast.Node, funcName string, ctxVars map[*types.Var]bool) {
	// selectPos marks the source ranges of select statements: receives
	// inside a select can be paired with a ctx.Done() case, so only bare
	// receives outside every select are uncancellable.
	var selects []*ast.SelectStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if s, ok := n.(*ast.SelectStmt); ok {
			selects = append(selects, s)
		}
		return true
	})
	inSelect := func(n ast.Node) bool {
		for _, s := range selects {
			if n.Pos() >= s.Pos() && n.End() <= s.End() {
				return true
			}
		}
		return false
	}

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			own := ctxParams(pass, n.Type)
			if len(own) > 0 {
				checkCtxFlow(pass, n.Body, funcName+" (func literal)", own)
				return false
			}
			return true // inherit: keep walking with the same ctxVars
		case *ast.AssignStmt:
			// Derived contexts: ctx2, cancel := context.WithTimeout(ctx, d)
			// makes ctx2 a context in scope too.
			trackDerivedCtx(pass, n, ctxVars)
		case *ast.UnaryExpr:
			// A bare receive outside any select cannot observe ctx.Done() —
			// unless it IS a receive from a context's Done channel, which is
			// the cancellation wait itself.
			if n.Op.String() == "<-" && !inSelect(n) && !isDoneChannel(pass, n.X) {
				pass.Reportf(n.Pos(), "blocking channel receive in %s ignores its ctx; select on ctx.Done() as well", funcName)
				return true
			}
		case *ast.CallExpr:
			if remedy := blockingNoCtxCall(pass, n); remedy != "" {
				pass.Reportf(n.Pos(), "%s holds a ctx but calls %s: %s", funcName, calleeName(n), remedy)
				return true
			}
			sig := callSignature(pass, n)
			if sig == nil || sig.Params().Len() == 0 || len(n.Args) == 0 {
				return true
			}
			if !isContextType(sig.Params().At(0).Type()) {
				return true
			}
			arg := ast.Unparen(n.Args[0])
			switch a := arg.(type) {
			case *ast.CallExpr:
				if fn := calleeFunc(pass, a); isPkgFunc(fn, "context", "Background") || isPkgFunc(fn, "context", "TODO") {
					pass.Reportf(n.Pos(), "%s holds a ctx but passes context.%s() to %s; forward the ctx", funcName, fn.Name(), calleeName(n))
				}
			case *ast.Ident:
				if _, isNil := pass.Info.Uses[a].(*types.Nil); isNil {
					pass.Reportf(n.Pos(), "%s holds a ctx but passes nil to %s; forward the ctx", funcName, calleeName(n))
				}
			}
		}
		return true
	}
	ast.Inspect(body, walk)
}

// isDoneChannel reports whether e is a call to the Done method of a
// context.Context value.
func isDoneChannel(pass *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	tv, ok := pass.Info.Types[sel.X]
	return ok && isContextType(tv.Type)
}

// trackDerivedCtx adds variables assigned from a context-fed call (ctx2,
// cancel := context.WithTimeout(ctx, …)) to the in-scope context set.
func trackDerivedCtx(pass *Pass, assign *ast.AssignStmt, ctxVars map[*types.Var]bool) {
	for _, lhs := range assign.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue
		}
		obj := pass.Info.Defs[id]
		if obj == nil {
			obj = pass.Info.Uses[id]
		}
		if v, ok := obj.(*types.Var); ok && isContextType(v.Type()) {
			ctxVars[v] = true
		}
	}
}

// checkExportedNeedsCtx flags exported distributed-path functions that
// perform blocking I/O with no context parameter to bound it.
func checkExportedNeedsCtx(pass *Pass, fd *ast.FuncDecl) {
	var reported bool
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if reported {
			return false
		}
		// A literal that declares its own context is bounded by whoever
		// calls it (a handler registered on a mux), not by fd's callers: it
		// gets the forwarding check instead.
		if lit, ok := n.(*ast.FuncLit); ok {
			if own := ctxParams(pass, lit.Type); len(own) > 0 {
				checkCtxFlow(pass, lit.Body, fd.Name.Name+" (func literal)", own)
				return false
			}
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if remedy := blockingNoCtxCall(pass, call); remedy != "" {
			pass.Reportf(fd.Name.Pos(), "exported %s performs blocking I/O (%s) but takes no context.Context", fd.Name.Name, calleeName(call))
			reported = true
			return false
		}
		sig := callSignature(pass, call)
		if sig == nil {
			return true
		}
		for i := 0; i < sig.Params().Len(); i++ {
			if isContextType(sig.Params().At(i).Type()) {
				pass.Reportf(fd.Name.Pos(), "exported %s performs blocking I/O (%s takes a ctx) but takes no context.Context itself", fd.Name.Name, calleeName(call))
				reported = true
				return false
			}
		}
		return true
	})
}
