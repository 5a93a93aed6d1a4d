package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// RowKernel statically enforces PR 3's zero-allocation contract on the hot
// row kernels. A function annotated `//turbdb:rowkernel` in its doc comment
// must stay free of heap traffic on every path:
//
//   - no make/new, and no append unless it demonstrably reuses the backing
//     array (first argument of the form s[:0]);
//   - no map composite literals and no map indexing (map access hashes and
//     may allocate on write);
//   - no defer (a deferred call allocates its frame record off the fast
//     path);
//   - no conversions to interface types and no function literals (both box
//     onto the heap);
//   - direct calls only to other annotated kernels, to builtins, or to the
//     math and sync/atomic packages (math functions are intrinsified or
//     leaf-inlinable; atomic operations compile to single instructions and
//     never allocate — they are what makes zero-alloc instrumentation of
//     the row path possible at all).
//
// Dynamic calls through function values or interface methods are exempt:
// the analyzer cannot see their targets, and the row-path design routes
// per-field variation through such values on purpose (Field.EvalRow,
// reduce parameters). The AllocsPerRun regression test remains the backstop
// for those.
//
// The analyzer also pins the annotation itself: mustAnnotateRowKernels lists
// the functions that constitute the row path, and any of them found without
// its `//turbdb:rowkernel` directive is a finding. Deleting an annotation
// (or adding a make to an annotated kernel) therefore fails the gate.
var RowKernel = &Analyzer{
	Name: "rowkernel",
	Doc:  "enforce the zero-allocation contract of //turbdb:rowkernel functions",
	Run:  runRowKernel,
}

// mustAnnotateRowKernels maps import-path suffixes to the functions (by
// "Recv.Name" or "Name" key) that must carry //turbdb:rowkernel. This is the
// source of truth for what constitutes the row path; extend it when a new
// kernel joins.
var mustAnnotateRowKernels = map[string][]string{
	"internal/stencil": {
		"Stencil.DerivRow", "Stencil.GradientRow", "Stencil.CurlRow", "Stencil.row",
		"row1", "row2", "row3", "row4", "tap1", "tap2", "tap3", "tap4", "rows3",
	},
	"internal/derived": {"rawEvalRow", "curlRow", "gradScalarRow", "Field.NormRow"},
	"internal/mathx":   {"QCriterionRow", "RInvariantRow", "FrobeniusNormRow", "symSq", "antiSq"},
	"internal/field":   {"Block.At", "Block.Offset", "Block.Strides", "Block.index", "Block.DecodeFrom"},
	"internal/grid":    {"Box.Size", "Box.Intersect"},
	"internal/node":    {"slabScan.rows"},
	"internal/obs":     {"Counter.Inc", "Counter.Add", "Gauge.Set", "Gauge.Add", "Histogram.Observe"},
}

func runRowKernel(pass *Pass) {
	required := requiredKernels(pass.ImportPath)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			key := funcKey(fd)
			annotated := hasRowKernelDirective(fd.Doc)
			if required[key] && !annotated {
				pass.Reportf(fd.Name.Pos(), "%s is a registered row kernel and must carry a //turbdb:rowkernel annotation", key)
			}
			if annotated && fd.Body != nil {
				checkKernelBody(pass, fd, key)
			}
		}
	}
}

// requiredKernels returns the must-annotate set for the package, keyed by
// funcKey. Matching is by import-path suffix so the fixture module's mirror
// packages exercise the same registry.
func requiredKernels(importPath string) map[string]bool {
	out := make(map[string]bool)
	for suffix, keys := range mustAnnotateRowKernels {
		if importPath == suffix || strings.HasSuffix(importPath, "/"+suffix) {
			for _, k := range keys {
				out[k] = true
			}
		}
	}
	return out
}

// funcKey renders a FuncDecl as "Recv.Name" (receiver base type, pointers
// stripped) or plain "Name".
func funcKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

func checkKernelBody(pass *Pass, fd *ast.FuncDecl, key string) {
	// A kernel factory returns its kernel as a function literal (the closure
	// is built once at catalog setup, not per row): a literal that is a
	// return value is the kernel itself and its body is checked under the
	// same rules, while any other literal inside a kernel is a per-call
	// heap escape and is flagged.
	returned := make(map[*ast.FuncLit]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if lit, ok := ast.Unparen(res).(*ast.FuncLit); ok {
				returned[lit] = true
			}
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			pass.Reportf(n.Pos(), "row kernel %s uses defer; deferred frames allocate off the fast path", key)
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "row kernel %s starts a goroutine; kernels must stay straight-line", key)
		case *ast.FuncLit:
			if returned[n] {
				return true // the factory's product: keep checking its body
			}
			pass.Reportf(n.Pos(), "row kernel %s builds a function literal; closures escape to the heap", key)
			return false
		case *ast.CompositeLit:
			if isMapType(pass, n) {
				pass.Reportf(n.Pos(), "row kernel %s builds a map literal; maps allocate", key)
			}
		case *ast.IndexExpr:
			if tv, ok := pass.Info.Types[n.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(), "row kernel %s indexes a map; map access hashes and may allocate", key)
				}
			}
		case *ast.CallExpr:
			checkKernelCall(pass, n, key)
		}
		return true
	})
}

func isMapType(pass *Pass, lit *ast.CompositeLit) bool {
	tv, ok := pass.Info.Types[lit]
	if !ok {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

func checkKernelCall(pass *Pass, call *ast.CallExpr, key string) {
	// Conversions: fine between concrete types, but converting to an
	// interface boxes the value.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type.Underlying()) {
			pass.Reportf(call.Pos(), "row kernel %s converts to interface type %s; interface conversions allocate", key, tv.Type)
		}
		return
	}
	// Builtins: make/new always allocate; append may grow its backing array
	// unless it explicitly recycles one (append(s[:0], ...)).
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new":
				pass.Reportf(call.Pos(), "row kernel %s calls %s; kernels must reuse caller-provided buffers", key, b.Name())
			case "append":
				if len(call.Args) == 0 || !isResetSlice(call.Args[0]) {
					pass.Reportf(call.Pos(), "row kernel %s calls append that may grow its backing array; reslice a reused buffer instead", key)
				}
			}
			return
		}
	}
	fn := calleeFunc(pass, call)
	if fn == nil {
		// Dynamic call (function value, interface method): out of scope by
		// design; AllocsPerRun covers these.
		return
	}
	if pass.RowKernels[fn] {
		return
	}
	if pkg := fn.Pkg(); pkg != nil && (pkg.Path() == "math" || pkg.Path() == "sync/atomic") {
		return
	}
	pass.Reportf(call.Pos(), "row kernel %s calls %s, which is not annotated //turbdb:rowkernel", key, calleeName(call))
}

// isResetSlice reports whether e has the shape s[:0] (or s[0:0]) — an append
// target that reuses its backing array.
func isResetSlice(e ast.Expr) bool {
	se, ok := ast.Unparen(e).(*ast.SliceExpr)
	if !ok || se.Slice3 {
		return false
	}
	low0 := se.Low == nil || isIntLit(se.Low, "0")
	return low0 && se.High != nil && isIntLit(se.High, "0")
}

func isIntLit(e ast.Expr, text string) bool {
	bl, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && bl.Kind == token.INT && bl.Value == text
}
