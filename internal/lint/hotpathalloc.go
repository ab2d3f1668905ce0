package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotPathAlloc polices the likelihood inner kernels.
//
// The per-pattern loops of newview/combine, makenewz and evaluate are the
// paper's hot 90%: they run once per alignment pattern per node visit, so a
// single heap allocation or fmt boxing inside them multiplies into millions
// of allocations per search.
//
// The search hot loop is in scope too: an SPR round prunes every subtree
// and scores every regraft candidate, so a slice reallocated per round (the
// candidate list, the score table) churns the heap tens of thousands of
// times per inference. Those buffers belong on the per-search context
// (searchCtx), reused across rounds.
//
// The compute backends (backend_scalar.go, backend_batched.go) are the
// same hot 90% behind an interface: their range methods (combineRows,
// evaluateRange, sumTableFactors, newtonDerivRange, newtonValueRange) and
// tile helpers run per pattern block, so the fragments below include
// tile/sumtable/newton to keep every backend implementation in scope.
//
// The observability helpers ride the same loops: Histogram.Observe and the
// kernel-observer adapter run once per kernel call, FlightRecorder.Record
// runs on every supervision event, and the span helpers bracket every
// round and candidate batch. An allocation in any of them silently taxes
// whatever hot path they instrument — the whole point of the obs v2 design
// is that instrumentation must be free — so internal/obs is in scope and
// the fragments include observe/record/span.
//
// The model optimisers' 1-D maximiser (search.brentMax) loops over
// full-tree recomputations; its bookkeeping is a handful of floats and must
// stay that way, so the fragments include brent.
//
// The range executor (executor.go) sits between every kernel call and its
// per-pattern loops: the caller's claim loop (runPass), the block dispatch
// (runBlock), the wait for adopted blocks (await) and the resident helpers
// (help, adopt, wakeHelper) run once per pass or per block of 512 patterns.
// The fan-out it replaced allocated two slices and a closure and spawned a
// goroutine per range on every call, so the fragments include
// runpass/runblock/adopt/await/help and a go statement in a hot function is
// reported too; the one place helpers are started is named for what it does
// (spawn) and is called once per process.
//
// The parsimony start trees seed every inference and bootstrap job: a
// stepwise step scores every branch of the growing tree against the new
// taxon, one bit-sliced Fitch combine per branch, so an allocation in the
// step or the combine runs n² times per start tree. internal/parsimony is in
// scope and the fragments include fitch/stepwise.
//
// The class pass (likelihood's repeats.go) numbers the repeat classes of a
// node's directed record whenever the topology behind it changed: one serial
// pass over the patterns per recomputed slot, so its table lives on the
// engine's scratch and the fragments include classpass.
//
// Inside functions whose name contains combine/newview/makenewz/evaluate/
// spr/insertion/tile/sumtable/newton/observe/record/span/brent/
// runpass/runblock/adopt/await/help/fitch/stepwise/classpass
// (case-insensitive), the analyzer reports:
//
//   - make(), append(), new() and slice/map composite literals inside any
//     loop — preallocate scratch buffers on the Engine (kernels) or the
//     searchCtx (search rounds) instead;
//   - the same allocations inside a nested func literal: kernel closures
//     run once per Newton iteration or per pattern range, so their
//     allocations are per-iteration too;
//   - fmt.* calls inside loops (interface boxing and formatting);
//   - go statements anywhere in the kernel.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "report per-pattern-loop allocations in the likelihood kernels, search rounds, parsimony start trees and obs hot-path helpers",
	Match: func(pkgPath string) bool {
		return pathHasAny(pkgPath, "internal/likelihood", "internal/search", "internal/obs", "internal/parsimony")
	},
	Run: runHotPathAlloc,
}

var hotFuncFragments = []string{"combine", "newview", "makenewz", "evaluate", "spr", "insertion", "tile", "sumtable", "newton", "observe", "record", "span", "brent", "runpass", "runblock", "adopt", "await", "help", "fitch", "stepwise", "classpass"}

func isHotFuncName(name string) bool {
	lower := strings.ToLower(name)
	for _, frag := range hotFuncFragments {
		if strings.Contains(lower, frag) {
			return true
		}
	}
	return false
}

func runHotPathAlloc(pass *Pass) {
	for _, f := range pass.NonTestFiles() {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !isHotFuncName(fn.Name.Name) {
				continue
			}
			checkHotFunc(pass, fn)
		}
	}
}

// checkHotFunc walks one kernel function tracking loop and closure nesting.
func checkHotFunc(pass *Pass, fn *ast.FuncDecl) {
	var walk func(n ast.Node, inLoop, inClosure bool)
	walk = func(n ast.Node, inLoop, inClosure bool) {
		if n == nil {
			return
		}
		switch n := n.(type) {
		case *ast.ForStmt:
			walkChildren(n, func(c ast.Node) { walk(c, true, inClosure) })
			return
		case *ast.RangeStmt:
			walkChildren(n, func(c ast.Node) { walk(c, true, inClosure) })
			return
		case *ast.FuncLit:
			// A fresh closure resets the loop context but marks
			// everything inside as per-invocation.
			walkChildren(n, func(c ast.Node) { walk(c, false, true) })
			return
		case *ast.GoStmt:
			pass.Reportf(n.Pos(),
				"go statement in kernel %s spawns a goroutine per call; the range executor's resident helpers adopt per-pattern work", fn.Name.Name)
		case *ast.CallExpr:
			checkHotCall(pass, fn, n, inLoop, inClosure)
		case *ast.CompositeLit:
			if inLoop || inClosure {
				if tv, ok := pass.Info.Types[n]; ok {
					switch tv.Type.Underlying().(type) {
					case *types.Slice, *types.Map:
						pass.Reportf(n.Pos(),
							"slice/map literal allocates %s in kernel %s; hoist it out of the hot path",
							hotContext(inLoop), fn.Name.Name)
					}
				}
			}
		}
		walkChildren(n, func(c ast.Node) { walk(c, inLoop, inClosure) })
	}
	walkChildren(fn.Body, func(c ast.Node) { walk(c, false, false) })
}

func hotContext(inLoop bool) string {
	if inLoop {
		return "inside a per-pattern loop"
	}
	return "inside a per-iteration closure"
}

func checkHotCall(pass *Pass, fn *ast.FuncDecl, call *ast.CallExpr, inLoop, inClosure bool) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if obj := pkgFuncObject(pass.Info, sel); obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" && inLoop {
			pass.Reportf(call.Pos(),
				"fmt.%s inside a per-pattern loop in kernel %s boxes its operands; format outside the hot path", obj.Name(), fn.Name.Name)
		}
		return
	}
	if !inLoop && !inClosure {
		return
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch b.Name() {
			case "make", "new":
				pass.Reportf(call.Pos(),
					"%s allocates %s in kernel %s; preallocate the buffer on the Engine and reuse it",
					b.Name(), hotContext(inLoop), fn.Name.Name)
			case "append":
				if inLoop {
					pass.Reportf(call.Pos(),
						"append inside a per-pattern loop in kernel %s may grow per iteration; preallocate with known capacity outside the loop", fn.Name.Name)
				}
			}
		}
	}
}

// walkChildren applies fn to each direct child node of n.
func walkChildren(n ast.Node, fn func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			fn(c)
		}
		return false
	})
}
