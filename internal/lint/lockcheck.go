package lint

import (
	"go/types"
	"strings"
)

// LockCheck enforces the repository's `// guarded by <mu>` annotation: a
// struct field carrying that comment may only be read or written through a
// selector inside a function that demonstrably holds the named mutex.
//
// A function is considered to hold a guard when its body locks or unlocks
// that mutex field, or when the function's name ends in "Locked" (the
// repository convention for helpers whose callers hold the lock). The body
// is the lock model's: function literals invoked or deferred in place are
// part of it, a deferred Unlock is not, and a literal launched with `go` (or
// stored) is a body of its own, starting with no guards, because it runs
// concurrently with or later than its creator.
//
// The annotation must name a sync.Mutex or sync.RWMutex field of the same
// struct, and must not sit on a typed atomic (atomic.Int64, …): atomic
// access bypasses the mutex, so the guard would be a lie.
//
// This is a syntactic approximation, not a lock-set dataflow analysis: it
// does not distinguish instances (locking a.mu while touching b.field
// passes) and it ignores acquisition order. It exists to catch the real
// bug class — methods touching shared state with no locking at all.
var LockCheck = &Analyzer{
	Name: "lockcheck",
	Doc:  "verify that `// guarded by <mu>` fields are accessed under their mutex",
	Run:  runLockCheck,
}

func runLockCheck(pass *Pass) {
	g := pass.Locks
	for _, f := range g.findings[pass.ImportPath] {
		pass.Reportf(f.pos, "%s", f.msg)
	}
	for _, b := range g.bodies[pass.ImportPath] {
		if !b.spawned && strings.HasSuffix(b.decl.Name.Name, "Locked") {
			continue
		}
		held := make(map[*types.Var]bool)
		for _, op := range b.ops {
			if op.mu != nil {
				held[op.mu] = true
			}
		}
		for _, op := range b.ops {
			if mu := g.guards[op.field]; op.field != nil && !held[mu] {
				pass.Reportf(op.pos, "%s accessed without holding %s (in %s)", op.field.Name(), mu.Name(), b.name())
			}
		}
	}
}
