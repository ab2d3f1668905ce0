package lint

import (
	"go/ast"
	"go/types"
)

// SimDeterminism enforces the simulator's bit-determinism contract.
//
// The discrete-event Cell simulator (internal/sim, internal/cell,
// internal/cellrt), the master-worker runtime (internal/mw), the fault
// injector (internal/fault) and the observability layer (internal/obs,
// whose trace files and metrics snapshots are golden-tested byte for byte)
// promise that a run is fully determined by its inputs and seeds: the cycle-accurate tables in EXPERIMENTS.md are diffed
// against the paper, checkpoint/restart relies on replaying identical job
// results, and chaos campaigns must inject the same faults on every replay.
// Three sources of hidden nondeterminism are banned inside those packages:
//
//   - wall-clock access (time.Now/Since/Until, timers, sleeps): simulated
//     time comes from sim.Engine.Now; anything else leaks host scheduling
//     into cycle counts.
//   - the global math/rand functions and rand.Seed: every RNG must be an
//     explicitly seeded *rand.Rand threaded through the call path, so a
//     job's outcome is a pure function of its seed.
//   - ranging over a map: Go randomizes map iteration order, so any event
//     scheduling, queue fill, or accounting fed from a map range can
//     reorder events between runs. Iterate over sorted keys instead.
//
// One classifier, directNondetReason, finds the three sources, and the
// analyzer uses it twice:
//
//   - on every loaded package (scoped or not, including dependency-only
//     fact passes) it runs the taint fixed point over the package-local
//     call graph, marking each declared function that reaches a source —
//     directly, through same-package helpers, or through an imported
//     function already marked by its own package's pass — and exports the
//     result as a cross-package "nondet" fact with the witness chain as its
//     value;
//   - inside the deterministic scope it reports every source at its use
//     site, and every call whose callee is a tainted function of an
//     out-of-scope package — the frontier where nondeterminism laundered
//     through a helper enters the simulator. Calls to in-scope callees are
//     not reported: their own package flags the source or its own frontier,
//     so each leak surfaces exactly once, at the deepest in-scope site.
//
// The taint is conservative where resolution is dynamic: calls through
// function values, fields and interfaces are not edges. That silence is
// load-bearing — fault.Clock is the sanctioned wall-clock injection seam,
// and precisely because it is an interface, taint stops at the boundary
// while direct calls into a concrete clock (e.g. wallclock.Clock) are
// still caught.
var SimDeterminism = &Analyzer{
	Name:  "simdeterminism",
	Doc:   "forbid wall-clock, global math/rand and map-order dependence in the simulator packages, directly or through calls into other packages",
	Facts: true,
	// Match is nil on purpose: fact mining must run everywhere calls can
	// lead. Reporting is gated on simScopes inside Run.
	Run: runSimDeterminism,
}

// simScopes is the deterministic-replay jurisdiction of SimDeterminism.
var simScopes = []string{
	"internal/sim", "internal/cell", "internal/cellrt", "internal/mw",
	"internal/fault", "internal/obs",
}

// forbiddenTimeFuncs are the package-level time functions that observe or
// depend on the host clock.
var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "After": true, "AfterFunc": true,
	"Tick": true, "NewTimer": true, "NewTicker": true,
}

// allowedRandFuncs are the math/rand package-level constructors that build
// explicitly seeded generators; everything else at package level draws from
// the global source.
var allowedRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
}

// nondetTaintConfig propagates the "nondet" fact: the witness reason of
// every function that reaches a direct source.
var nondetTaintConfig = &TaintConfig{
	Fact: "nondet",
	DirectReason: func(info *types.Info, n ast.Node) (string, bool) {
		reason, _, ok := directNondetReason(info, n)
		return reason, ok
	},
}

func runSimDeterminism(pass *Pass) {
	taint := Propagate(pass, nondetTaintConfig)

	if !pathHasAny(pass.Path, simScopes...) {
		return // out of scope: facts only
	}
	for _, f := range pass.NonTestFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			if _, finding, ok := directNondetReason(pass.Info, n); ok {
				pass.Reportf(n.Pos(), "%s", finding)
			}
			return true
		})
	}
	for _, node := range pass.CallGraph().Order {
		for _, site := range node.Calls {
			callee := site.Callee
			if callee.Pkg() == nil || callee.Pkg() == pass.Pkg {
				continue // same package: sources are flagged at their own lines
			}
			if pathHasAny(callee.Pkg().Path(), simScopes...) {
				continue // callee's package flags its own sources/frontier
			}
			if reason := taint.Reason(callee); reason != "" {
				pass.Reportf(site.Call.Pos(),
					"call to %s is nondeterministic (it %s); the %s scope must replay bit-identically — inject the value through a seeded RNG, sim time, or an interface seam instead",
					calleeLabel(callee), reason, scopeLabel(pass.Path))
			}
		}
	}
}

// scopeLabel names the matched scope segment for diagnostics.
func scopeLabel(pkgPath string) string {
	for _, s := range simScopes {
		if pathHasAny(pkgPath, s) {
			return s
		}
	}
	return "simulator"
}

// directNondetReason classifies n as a direct source of nondeterminism:
// reason is the compact description witness chains carry, finding the
// diagnostic at the use site, and ok false when n is none of the three.
//
//   - a reference to a wall-clock time function (time.Now, time.Sleep,
//     timers): even passing time.Now as a value is a source;
//   - a reference to a global math/rand or math/rand/v2 function (the
//     explicitly seeded constructors are fine);
//   - a range over a map or over a raw maps.Keys/Values/All iterator
//     (randomized order). The slices.Sorted(maps.Keys(m)) idiom never
//     ranges directly and stays clean.
func directNondetReason(info *types.Info, n ast.Node) (reason, finding string, ok bool) {
	switch n := n.(type) {
	case *ast.SelectorExpr:
		obj := pkgFuncObject(info, n)
		if obj == nil || obj.Pkg() == nil {
			return "", "", false
		}
		name := obj.Name()
		switch obj.Pkg().Path() {
		case "time":
			if forbiddenTimeFuncs[name] {
				return "reads the wall clock via time." + name,
					"wall-clock time." + name + " is nondeterministic inside the simulator; use sim.Engine.Now (simulated cycles) or inject a clock", true
			}
		case "math/rand", "math/rand/v2":
			if _, isFunc := obj.(*types.Func); isFunc && !allowedRandFuncs[name] {
				return "draws from the global math/rand source via rand." + name,
					"global math/rand." + name + " draws from a process-wide source; thread an explicitly seeded *rand.Rand instead", true
			}
		}
	case *ast.RangeStmt:
		if n.X == nil {
			return "", "", false
		}
		if tv, ok := info.Types[n.X]; ok {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				return "ranges over a map in randomized order",
					"map iteration order is randomized and can reorder simulator events between runs; iterate over sorted keys (e.g. slices.Sorted(maps.Keys(m)))", true
			}
		}
		// Ranging over the raw maps.Keys/Values/All iterator has the same
		// randomized order as the map itself.
		if call, ok := n.X.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if obj := pkgFuncObject(info, sel); obj != nil && obj.Pkg() != nil &&
					obj.Pkg().Path() == "maps" &&
					(obj.Name() == "Keys" || obj.Name() == "Values" || obj.Name() == "All") {
					return "ranges over the unsorted maps." + obj.Name() + " iterator",
						"maps." + obj.Name() + " iterates in randomized order; sort first (e.g. slices.Sorted(maps.Keys(m)))", true
				}
			}
		}
	}
	return "", "", false
}
