package lint

import (
	"go/ast"
	"go/types"
)

// CtxOwnership enforces the kernel-context ownership discipline behind
// task-level parallelism (PR 5/6).
//
// A likelihood.Ctx is one worker's private kernel scratch; a
// likelihood.Views is a lazy-SPR vector cache bound to exactly one Ctx.
// Neither is locked: correctness under the Pool rests entirely on the
// convention that worker w touches only Pool.Ctx(w) and views built on
// it, with Pool.Run's contiguous-block partition as the only fan-out.
// Two escapes break the convention and are flagged:
//
//   - capture by goroutine: a go statement whose call (function, closure
//     body or arguments) references a Ctx or Views value spawns a
//     goroutine outside the pool's partition — nothing then serializes it
//     against the context's real owner. Fan-out must go through Pool.Run,
//     which hands each goroutine its own worker index.
//
//   - stores that widen reachability: a Ctx/Views written into a
//     package-level variable, into a field of the shared Engine (only the
//     engine's own primary-context slot ctx0, set by the likelihood
//     package, is sanctioned), or into a field of a struct declared in
//     another package. A context stored where code of another package —
//     and so, potentially, another worker's callback — can load it is no
//     longer single-owner. Structs of the using package itself (e.g.
//     search's per-worker views table, indexed by Pool worker) stay
//     legal: the package that declares the struct owns its access
//     discipline, and the go-capture rule still polices its fan-outs.
//
//   - publication through an atomic pointer: x.Store(ctx), x.Swap(ctx) or
//     x.CompareAndSwap(old, ctx) on a sync/atomic.Pointer of an owned type
//     hands the context to whoever loads it. That is how the range
//     executor offers the blocks of a running pass to its resident helpers,
//     and it is sanctioned there alone (likelihood's Ctx.runPass, which
//     takes the context back before the call returns): a helper runs a
//     *Range method on a Ctx it does not own only for a block it claimed
//     through that slot, on its own tile scratch (backendpurity holds the
//     methods to that).
//
// The analysis is syntactic and intraprocedural by design; the
// cross-package half of the invariant rides on type identity (the owned
// types and the Engine are recognized across package boundaries), which
// is what makes the multi-package golden case interprocedural.
var CtxOwnership = &Analyzer{
	Name: "ctxownership",
	Doc:  "forbid likelihood.Ctx/Views escaping their pool worker: goroutine capture, shared-reachable stores and atomic-pointer publication outside the range executor",
	Match: func(pkgPath string) bool {
		return pathHasAny(pkgPath,
			"internal/likelihood", "internal/search", "internal/core", "cmd")
	},
	Run: runCtxOwnership,
}

// likelihoodPkg is the path fragment identifying the kernel package that
// declares the owned types and the shared Engine.
const likelihoodPkg = "internal/likelihood"

// ownedTypeName reports whether t is (or points to, or slices) one of the
// per-worker owned types, returning its short name.
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

// isEngineType reports whether t is likelihood.Engine or a pointer to it.
func isEngineType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Engine" && obj.Pkg() != nil && pathHasAny(obj.Pkg().Path(), likelihoodPkg)
}

func runCtxOwnership(pass *Pass) {
	for _, f := range pass.NonTestFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				checkGoCapture(pass, n)
			case *ast.FuncDecl:
				if n.Body != nil && !(n.Name.Name == "runPass" && pathHasAny(pass.Path, likelihoodPkg)) {
					checkAtomicPublish(pass, n)
				}
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					rhs := lhs // x, err := f(): judge by the LHS's own type
					if len(n.Rhs) == len(n.Lhs) {
						rhs = n.Rhs[i]
					}
					checkOwnedStore(pass, lhs, rhs)
				}
			case *ast.ValueSpec:
				checkOwnedGlobal(pass, n)
			case *ast.CompositeLit:
				checkOwnedCompositeLit(pass, n)
			}
			return true
		})
	}
}

// checkGoCapture flags any reference to an owned value anywhere in a go
// statement's call: closure bodies, the called expression, and arguments.
func checkGoCapture(pass *Pass, g *ast.GoStmt) {
	ast.Inspect(g.Call, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[id]
		if obj == nil {
			return true
		}
		if _, isVar := obj.(*types.Var); !isVar {
			return true
		}
		if name, owned := ownedTypeName(obj.Type()); owned {
			pass.Reportf(id.Pos(),
				"likelihood.%s %q is referenced by a raw go statement; per-worker kernel state must fan out through Pool.Run, which owns the worker partition", name, id.Name)
		}
		return true
	})
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

// checkOwnedStore flags stores of owned values that widen who can reach
// them: package-level variables, shared Engine fields (other than the
// likelihood package's own primary slot), and fields of foreign structs.
func checkOwnedStore(pass *Pass, lhs, rhs ast.Expr) {
	tv, ok := pass.Info.Types[rhs]
	if !ok || tv.Type == nil {
		return
	}
	name, owned := ownedTypeName(tv.Type)
	if !owned {
		return
	}

	// Unwrap index/star layers: a store into x.f[i] is a store governed
	// by field f's declaring struct.
	base := lhs
	for {
		switch b := base.(type) {
		case *ast.IndexExpr:
			base = b.X
			continue
		case *ast.StarExpr:
			base = b.X
			continue
		case *ast.ParenExpr:
			base = b.X
			continue
		}
		break
	}

	switch b := base.(type) {
	case *ast.Ident:
		obj := pass.Info.Uses[b]
		if obj == nil {
			obj = pass.Info.Defs[b]
		}
		if v, isVar := obj.(*types.Var); isVar && v.Parent() == pass.Pkg.Scope() {
			pass.Reportf(lhs.Pos(),
				"likelihood.%s stored in package-level variable %q; a context reachable from every goroutine has no owner — thread it through the Pool worker instead", name, b.Name)
		}
	case *ast.SelectorExpr:
		sel, ok := pass.Info.Selections[b]
		if !ok || sel.Kind() != types.FieldVal {
			return
		}
		field := sel.Obj()
		if isEngineType(sel.Recv()) {
			if field.Name() == "ctx0" && pathHasAny(pass.Path, likelihoodPkg) {
				return // the engine's own primary-context slot
			}
			pass.Reportf(lhs.Pos(),
				"likelihood.%s stored into shared Engine field %q; every worker context reads the engine, so the store leaks one worker's scratch to all of them (only the primary slot ctx0 lives there)", name, field.Name())
			return
		}
		if field.Pkg() != nil && field.Pkg() != pass.Pkg {
			pass.Reportf(lhs.Pos(),
				"likelihood.%s stored into field %s of %s, a struct of another package; ownership of per-worker kernel state cannot be audited across that boundary — keep it in a struct this package declares", name, field.Name(), types.TypeString(sel.Recv(), types.RelativeTo(pass.Pkg)))
		}
	}
}

// checkOwnedGlobal flags package-level variable declarations of owned
// type: `var sharedCtx *likelihood.Ctx` invites every goroutine in.
func checkOwnedGlobal(pass *Pass, spec *ast.ValueSpec) {
	for _, nm := range spec.Names {
		obj, ok := pass.Info.Defs[nm].(*types.Var)
		if !ok || obj.Parent() != pass.Pkg.Scope() {
			continue
		}
		if name, owned := ownedTypeName(obj.Type()); owned {
			pass.Reportf(nm.Pos(),
				"package-level variable %q holds a likelihood.%s; per-worker kernel state must not be globally reachable", nm.Name, name)
		}
	}
}

// checkOwnedCompositeLit applies the foreign-field rule to composite
// literals: Foreign{F: ctx} stores just like foreign.F = ctx.
func checkOwnedCompositeLit(pass *Pass, lit *ast.CompositeLit) {
	tv, ok := pass.Info.Types[lit]
	if !ok || tv.Type == nil {
		return
	}
	t := tv.Type
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg() == pass.Pkg {
		return
	}
	if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
		return
	}
	for _, elt := range lit.Elts {
		val := elt
		if kv, isKV := elt.(*ast.KeyValueExpr); isKV {
			val = kv.Value
		}
		vtv, ok := pass.Info.Types[val]
		if !ok || vtv.Type == nil {
			continue
		}
		if name, owned := ownedTypeName(vtv.Type); owned {
			pass.Reportf(val.Pos(),
				"likelihood.%s stored into a composite literal of foreign struct %s; keep per-worker kernel state in structs this package declares", name, named.Obj().Name())
		}
	}
}
