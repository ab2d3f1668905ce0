package lint

import (
	"go/ast"
	"go/types"
)

// CtxOwnership keeps the engine's kernel context single-owner. A
// likelihood.Ctx is an engine's private kernel scratch, and a
// likelihood.Views a lazy-SPR vector table bound to it; neither is locked.
// The one sanctioned way to hand either to goroutines that do not own it is
// publication through an atomic pointer — x.Store(ctx), x.Swap(ctx) or
// x.CompareAndSwap(old, ctx) on a sync/atomic.Pointer of an owned type —
// which is how the range executor offers the blocks of a running pass to its
// resident helpers. It is sanctioned there alone (likelihood's Ctx.runPass,
// which takes the context back before the call returns): a helper runs a
// *Range method on a Ctx it does not own only for a block it claimed through
// that slot, on its own tile scratch (backendpurity holds the methods to
// that). Any other such publication is flagged.
//
// The owned types are recognized by type identity across package
// boundaries, which is what makes the multi-package golden case
// interprocedural.
var CtxOwnership = &Analyzer{
	Name: "ctxownership",
	Doc:  "forbid publishing a likelihood.Ctx/Views through an atomic pointer outside the range executor's Ctx.runPass",
	Match: func(pkgPath string) bool {
		return pathHasAny(pkgPath,
			"internal/likelihood", "internal/search", "internal/core", "cmd")
	},
	Run: runCtxOwnership,
}

// likelihoodPkg is the path fragment identifying the kernel package that
// declares the owned types.
const likelihoodPkg = "internal/likelihood"

// ownedTypeName reports whether t is (or points to, or slices) one of the
// owned types, returning its short name.
func ownedTypeName(t types.Type) (string, bool) {
	switch u := t.(type) {
	case *types.Pointer:
		return ownedTypeName(u.Elem())
	case *types.Slice:
		return ownedTypeName(u.Elem())
	case *types.Named:
		obj := u.Obj()
		if obj.Pkg() == nil || !pathHasAny(obj.Pkg().Path(), likelihoodPkg) {
			return "", false
		}
		if n := obj.Name(); n == "Ctx" || n == "Views" {
			return n, true
		}
	}
	return "", false
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

// checkAtomicPublish flags Store/Swap/CompareAndSwap of an owned value on a
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
		if tv, ok := pass.Info.Types[arg]; ok && tv.Type != nil {
			if name, owned := ownedTypeName(tv.Type); owned {
				pass.Reportf(arg.Pos(),
					"likelihood.%s published through an atomic pointer in %s; only the range executor offers a running pass to its helpers (Ctx.runPass), and takes it back before the call returns", name, fn.Name.Name)
			}
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
