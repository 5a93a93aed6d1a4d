package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroutineLife demands a statically provable termination or ownership story
// for every `go` statement. A spawned goroutine is accepted when:
//
//   - its body watches a context's cancellation channel (`<-ctx.Done()`,
//     directly or in a select case), so shutdown reaches it; or
//   - it is tracked by a sync.WaitGroup: the body calls (usually defers)
//     `wg.Done()` and the same WaitGroup's `Wait` is called somewhere in the
//     package, so some owner provably joins it.
//
// Everything else is a fire-and-forget goroutine — the leak class that
// accumulates in long-lived daemons — and is flagged. Sound-but-unprovable
// lifecycles (a handshake protocol, a goroutine whose exit is guaranteed by
// a channel the analyzer cannot reason about) carry a reasoned
// //turbdb:ignore goroutinelife <reason> so the exception is auditable.
//
// The analyzer also flags two WaitGroup misuse patterns around `go`:
//
//   - `wg.Add` inside the goroutine the WaitGroup tracks: the spawner can
//     reach `Wait` before the goroutine is scheduled, so the counter can hit
//     zero while work is still starting;
//   - `wg.Wait` while holding a mutex that a tracked goroutine itself
//     acquires: the goroutine blocks on the lock, Wait blocks on the
//     goroutine — deadlock.
var GoroutineLife = &Analyzer{
	Name: "goroutinelife",
	Doc:  "every go statement needs a provable termination/ownership story",
	Run:  runGoroutineLife,
}

// isWaitGroupType reports whether t is sync.WaitGroup (through pointers).
func isWaitGroupType(t types.Type) bool { return isNamedType(t, "sync", "WaitGroup") }

func defOrUse(pass *Pass, id *ast.Ident) types.Object {
	if obj := pass.Info.Defs[id]; obj != nil {
		return obj
	}
	return pass.Info.Uses[id]
}

// waitGroupCallee matches a call `wg.<method>(...)` on a sync.WaitGroup and
// returns the WaitGroup variable (field or local) it targets.
func waitGroupCallee(pass *Pass, call *ast.CallExpr, method string) *types.Var {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return nil
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		if v, ok := defOrUse(pass, x).(*types.Var); ok && isWaitGroupType(v.Type()) {
			return v
		}
	case *ast.SelectorExpr:
		if v, ok := pass.Info.Uses[x.Sel].(*types.Var); ok && isWaitGroupType(v.Type()) {
			return v
		}
	}
	return nil
}

// goSite is one `go` statement with its resolved body (nil when the spawned
// function is dynamic or defined outside the package).
type goSite struct {
	stmt *ast.GoStmt
	body *ast.BlockStmt
	desc string // what is being launched, for diagnostics
}

// resolveGoBody finds the statically known body of a go statement: a
// function literal, or a function/method declared in this package.
func resolveGoBody(pass *Pass, decls map[types.Object]*ast.FuncDecl, stmt *ast.GoStmt) goSite {
	site := goSite{stmt: stmt}
	if lit, ok := stmt.Call.Fun.(*ast.FuncLit); ok {
		site.body = lit.Body
		site.desc = "function literal"
		return site
	}
	fn := calleeFunc(pass, stmt.Call)
	if fn == nil {
		site.desc = "a dynamic call"
		return site
	}
	site.desc = fn.Name()
	if fd, ok := decls[fn]; ok && fd.Body != nil {
		site.body = fd.Body
	}
	return site
}

// watchesDone reports whether the body receives from a context Done channel
// (unary receive or select case), the shutdown-signal idiom.
func watchesDone(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && isDoneChannel(pass, n.X) {
				found = true
			}
		case *ast.RangeStmt:
			if isDoneChannel(pass, n.X) {
				found = true
			}
		}
		return !found
	})
	return found
}

// bodyWaitGroups returns the WaitGroups the body calls Done on (the "I am
// tracked" half of the ownership story), and separately the WaitGroups the
// body calls Add on (which is misuse when it is the tracking group).
func bodyWaitGroups(pass *Pass, body *ast.BlockStmt) (done, added map[*types.Var]token.Pos) {
	done = make(map[*types.Var]token.Pos)
	added = make(map[*types.Var]token.Pos)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if wg := waitGroupCallee(pass, call, "Done"); wg != nil {
			done[wg] = call.Pos()
		}
		if wg := waitGroupCallee(pass, call, "Add"); wg != nil {
			added[wg] = call.Pos()
		}
		return true
	})
	return done, added
}

// bodyLocks returns the mutexes the body may acquire, directly or through
// static callees (using the module-wide acquisition summaries).
func bodyLocks(pass *Pass, body *ast.BlockStmt) map[*types.Var]bool {
	locks := make(map[*types.Var]bool)
	var spawned []*ast.FuncLit
	for _, op := range collectLockOps(pass.Package, body, &spawned) {
		switch {
		case op.mu != nil && !op.release:
			locks[op.mu] = true
		case op.fn != nil:
			for mu := range pass.Locks.Acquires[op.fn] {
				locks[mu] = true
			}
		}
	}
	return locks
}

func runGoroutineLife(pass *Pass) {
	// Package-wide context: function declarations by object, every
	// WaitGroup with a reachable Wait, and the go statements themselves.
	decls := make(map[types.Object]*ast.FuncDecl)
	waited := make(map[*types.Var]bool)
	var sites []goSite
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj := pass.Info.Defs[fd.Name]; obj != nil {
				decls[obj] = fd
			}
		}
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if wg := waitGroupCallee(pass, n, "Wait"); wg != nil {
					waited[wg] = true
				}
			case *ast.GoStmt:
				sites = append(sites, resolveGoBody(pass, decls, n))
			}
			return true
		})
	}

	// trackedLocks: WaitGroup → locks its tracked goroutines may need, for
	// the Wait-under-lock check below.
	trackedLocks := make(map[*types.Var]map[*types.Var]bool)

	for _, site := range sites {
		if site.body == nil {
			pass.Reportf(site.stmt.Pos(), "goroutine launches %s, whose body cannot be analyzed statically; wrap it in a tracked function literal or add //turbdb:ignore goroutinelife <reason>", site.desc)
			continue
		}
		done, added := bodyWaitGroups(pass, site.body)
		for wg, pos := range added {
			if _, tracked := done[wg]; tracked {
				pass.Reportf(pos, "wg.Add of %s inside the goroutine it tracks; the spawner can reach Wait before this goroutine runs — Add before the go statement", wgName(wg))
			}
		}
		ok := watchesDone(pass, site.body)
		for wg := range done {
			if waited[wg] {
				ok = true
				if trackedLocks[wg] == nil {
					trackedLocks[wg] = make(map[*types.Var]bool)
				}
				for mu := range bodyLocks(pass, site.body) {
					trackedLocks[wg][mu] = true
				}
			} else {
				pass.Reportf(site.stmt.Pos(), "goroutine signals WaitGroup %s, but its Wait is never called in this package — nothing joins this goroutine", wgName(wg))
				ok = true // the missing Wait is the finding; don't double-report
			}
		}
		if !ok {
			pass.Reportf(site.stmt.Pos(), "fire-and-forget goroutine (%s): body neither watches a context Done channel nor signals a waited-on sync.WaitGroup; add an ownership story or //turbdb:ignore goroutinelife <reason>", site.desc)
		}
	}

	// Wait-under-lock: simulate each function's lock state in source order
	// and flag Wait calls made while holding a mutex a tracked goroutine of
	// that WaitGroup may itself acquire.
	for _, fd := range decls {
		checkWaitUnderLock(pass, fd, trackedLocks)
	}
}

// wgName renders a WaitGroup variable for diagnostics.
func wgName(wg *types.Var) string {
	return wg.Name()
}

// waitEvent is a wg.Wait() call found while scanning a function body.
type waitEvent struct {
	pos token.Pos
	wg  *types.Var
}

// checkWaitUnderLock merges a function's lock ops and Wait calls in source
// order, tracking the held set (deferred unlocks hold to function end, as in
// the lock model) to catch `mu.Lock(); wg.Wait()` joins of goroutines that
// need mu.
func checkWaitUnderLock(pass *Pass, fd *ast.FuncDecl, trackedLocks map[*types.Var]map[*types.Var]bool) {
	var waits []waitEvent
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.GoStmt); ok {
			return false // the goroutine body runs on its own lock state
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if wg := waitGroupCallee(pass, call, "Wait"); wg != nil {
				waits = append(waits, waitEvent{pos: call.Pos(), wg: wg})
			}
		}
		return true
	})
	if len(waits) == 0 {
		return
	}
	var spawned []*ast.FuncLit
	ops := collectLockOps(pass.Package, fd.Body, &spawned)
	var held []*types.Var
	oi := 0
	for _, w := range waits {
		for ; oi < len(ops) && ops[oi].pos < w.pos; oi++ {
			op := ops[oi]
			switch {
			case op.mu != nil && op.release:
				held = releaseLast(held, op.mu)
			case op.mu != nil:
				held = append(held, op.mu)
			}
		}
		for _, mu := range held {
			if trackedLocks[w.wg][mu] {
				pass.Reportf(w.pos, "wg.Wait on %s while holding %s, which a goroutine tracked by this WaitGroup acquires — deadlock", wgName(w.wg), pass.Locks.lockName(mu))
			}
		}
	}
}
