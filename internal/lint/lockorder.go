package lint

import (
	"fmt"
	"go/types"
	"sort"
	"strings"
)

// LockOrder enforces a declared lock hierarchy on top of the `// guarded by`
// convention. Mutex fields (and package-level mutex variables) opt in with
//
//	//turbdb:lockrank <name> <level>
//
// on their declaration: <name> is the lock's hierarchy-wide label and <level>
// an integer rank. The rule is strict ordering: while any lock is held, only
// locks with a strictly greater level may be acquired. The analyzer builds a
// static lock-acquisition graph — which locks each function may take,
// propagated bottom-up through the module's call graph by the loader — and
// reports:
//
//   - rank inversions: an acquisition of a lock whose level is ≤ the level of
//     a lock already held, with the call path from the holder to the
//     acquisition;
//   - re-acquisition: taking a lock the function (or a callee) already
//     holds — self-deadlock, since sync.Mutex is not reentrant;
//   - cycles: a cycle in the acquisition graph among any mutexes (ranked or
//     not) — two code paths that take the same locks in opposite orders can
//     deadlock even if neither lock declares a rank.
//
// Like lockcheck, the analysis identifies a lock by its field (or variable)
// declaration, not by instance: locking a.mu of one instance and b.mu of
// another registers as the same lock. The "held" state is a per-function
// syntactic approximation in source order; control flow that releases a lock
// on one branch only is not modeled. Deliberate exceptions carry a
// //turbdb:ignore lockorder <reason> suppression.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "verify //turbdb:lockrank acquisition order and detect lock cycles",
	Run:  runLockOrder,
}

func runLockOrder(pass *Pass) {
	g := pass.Locks
	pass.reportDeclFindings()
	checkLockRankNames(pass, g)

	// Rank inversions and re-acquisitions on this package's edges.
	for _, e := range g.Edges {
		if e.Pkg != pass.ImportPath {
			continue
		}
		path := strings.Join(e.Path, " → ")
		if e.From == e.To {
			pass.Reportf(e.Pos, "acquires %s while already holding it (self-deadlock); path: %s", g.lockName(e.To), path)
			continue
		}
		fromRank, okF := g.Ranks[e.From]
		toRank, okT := g.Ranks[e.To]
		if okF && okT && toRank.Level <= fromRank.Level {
			pass.Reportf(e.Pos, "acquires %s (lockrank %d) while holding %s (lockrank %d); levels must strictly increase — path: %s",
				toRank.Name, toRank.Level, fromRank.Name, fromRank.Level, path)
		}
	}

	checkLockCycles(pass, g)
}

// checkLockRankNames checks hierarchy-name consistency across the whole
// module (one name, one level) for the ranks this package declares. It runs
// at analysis time, when every package's ranks are recorded, because the
// first declaration of a name is the one with the lowest position.
func checkLockRankNames(pass *Pass, g *LockGraph) {
	byName := make(map[string]LockRank)
	for _, r := range g.Ranks {
		prev, ok := byName[r.Name]
		if !ok || r.Pos < prev.Pos {
			byName[r.Name] = r
		}
	}
	for v, r := range g.Ranks {
		if first := byName[r.Name]; v.Pkg() == pass.Types && first.Pos != r.Pos && first.Level != r.Level {
			pass.Reportf(v.Pos(), "lockrank name %q redeclared with level %d (first declared with level %d)", r.Name, r.Level, first.Level)
		}
	}
}

// checkLockCycles finds cycles in the module-wide acquisition graph
// (self-edges excluded — reported separately) and reports each one exactly
// once, in the package owning the cycle's earliest edge, so the diagnostic
// is deterministic under parallel per-package analysis.
func checkLockCycles(pass *Pass, g *LockGraph) {
	adj := make(map[*types.Var][]LockEdge)
	var nodes []*types.Var
	seen := make(map[*types.Var]bool)
	for _, e := range g.Edges {
		if e.From == e.To {
			continue
		}
		adj[e.From] = append(adj[e.From], e)
		for _, v := range []*types.Var{e.From, e.To} {
			if !seen[v] {
				seen[v] = true
				nodes = append(nodes, v)
			}
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Pos() < nodes[j].Pos() })
	for _, edges := range adj {
		sort.Slice(edges, func(i, j int) bool { return edges[i].Pos < edges[j].Pos })
	}

	// DFS from each node in declaration order; the first back edge to the
	// root of the current path closes a cycle. Each cycle is canonicalized
	// by its minimum-position edge to report it once.
	reported := make(map[string]bool)
	for _, root := range nodes {
		var path []LockEdge
		onPath := map[*types.Var]bool{root: true}
		var dfs func(v *types.Var) bool
		dfs = func(v *types.Var) bool {
			for _, e := range adj[v] {
				if e.To == root {
					reportCycle(pass, g, append(path[:len(path):len(path)], e), reported)
					continue
				}
				if onPath[e.To] {
					continue // inner cycle; found when its own root is visited
				}
				onPath[e.To] = true
				path = append(path, e)
				dfs(e.To)
				path = path[:len(path)-1]
				delete(onPath, e.To)
			}
			return false
		}
		dfs(root)
	}
}

// reportCycle reports one closed acquisition cycle if its representative
// (earliest-position) edge belongs to the pass's package.
func reportCycle(pass *Pass, g *LockGraph, cycle []LockEdge, reported map[string]bool) {
	rep := cycle[0]
	for _, e := range cycle {
		if e.Pos < rep.Pos {
			rep = e
		}
	}
	if rep.Pkg != pass.ImportPath {
		return
	}
	names := make([]string, 0, len(cycle)+1)
	for _, e := range cycle {
		names = append(names, g.lockName(e.From))
	}
	sort.Strings(names) // canonical id independent of traversal rotation
	id := strings.Join(names, "|")
	if reported[id] {
		return
	}
	reported[id] = true

	// render the cycle starting from the representative edge
	start := 0
	for i, e := range cycle {
		if e.Pos == rep.Pos && e.From == rep.From && e.To == rep.To {
			start = i
			break
		}
	}
	var chain []string
	var paths []string
	for i := 0; i < len(cycle); i++ {
		e := cycle[(start+i)%len(cycle)]
		chain = append(chain, g.lockName(e.From))
		paths = append(paths, fmt.Sprintf("%s→%s via %s", g.lockName(e.From), g.lockName(e.To), strings.Join(e.Path, " → ")))
	}
	chain = append(chain, g.lockName(cycle[start].From))
	pass.Reportf(rep.Pos, "lock-order cycle %s (%s); two paths can deadlock", strings.Join(chain, " → "), strings.Join(paths, "; "))
}
