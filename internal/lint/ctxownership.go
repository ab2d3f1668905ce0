package lint

import (
	"go/ast"
	"go/types"
)

// CtxOwnership keeps the likelihood engine single-owner. A
// likelihood.Engine holds its kernels' scratch, its vector slots and its
// lazy-SPR memo, none of them locked. The one sanctioned way to hand an
// engine to goroutines that do not own it is publication through an atomic
// pointer — x.Store(e), x.Swap(e) or x.CompareAndSwap(old, e) on a
// sync/atomic.Pointer of the engine — which is how the range executor offers
// the blocks of a running pass to its resident helpers. It is sanctioned
// there alone (likelihood's Engine.runPass, which takes the engine back
// before the call returns): a helper runs a *Range method on an engine it
// does not own only for a block it claimed through that slot, on its own
// tile scratch (backendpurity holds the methods to that). Any other such
// publication is flagged.
//
// The engine type is recognized by type identity across package
// boundaries, which is what makes the multi-package golden case
// interprocedural.
var CtxOwnership = &Analyzer{
	Name: "ctxownership",
	Doc:  "forbid publishing a likelihood.Engine through an atomic pointer outside the range executor's Engine.runPass",
	Match: func(pkgPath string) bool {
		return pathHasAny(pkgPath,
			"internal/likelihood", "internal/search", "internal/core", "cmd")
	},
	Run: runCtxOwnership,
}

// likelihoodPkg is the path fragment identifying the kernel package that
// declares the owned type.
const likelihoodPkg = "internal/likelihood"

// isOwnedType reports whether t is (or points to, or slices) the likelihood
// Engine.
func isOwnedType(t types.Type) bool {
	switch u := t.(type) {
	case *types.Pointer:
		return isOwnedType(u.Elem())
	case *types.Slice:
		return isOwnedType(u.Elem())
	}
	return isLikelihoodType(t, "Engine")
}

func runCtxOwnership(pass *Pass) {
	for _, f := range pass.NonTestFiles() {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Body != nil &&
				!(fn.Name.Name == "runPass" && pathHasAny(pass.Path, likelihoodPkg)) {
				checkAtomicPublish(pass, fn)
			}
		}
	}
}

// checkAtomicPublish flags Store/Swap/CompareAndSwap of an engine on a
// sync/atomic.Pointer anywhere in fn.
func checkAtomicPublish(pass *Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Store", "Swap", "CompareAndSwap":
		default:
			return true
		}
		recv, ok := pass.Info.Types[sel.X]
		if !ok || !isAtomicPointer(recv.Type) {
			return true
		}
		arg := call.Args[len(call.Args)-1]
		if tv, ok := pass.Info.Types[arg]; ok && tv.Type != nil && isOwnedType(tv.Type) {
			pass.Reportf(arg.Pos(),
				"likelihood.Engine published through an atomic pointer in %s; only the range executor offers a running pass to its helpers (Engine.runPass), and takes it back before the call returns", fn.Name.Name)
		}
		return true
	})
}

// isAtomicPointer reports whether t is sync/atomic.Pointer[T] or a pointer
// to one.
func isAtomicPointer(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Pointer" && obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}
