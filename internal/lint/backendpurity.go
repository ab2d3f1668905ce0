package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BackendPurity enforces the Backend concurrency contract (backend.go):
// one backend value serves every kernel context of an engine, and the range
// executor runs several pattern blocks of a single pass concurrently over
// the SAME Ctx — the calling goroutine and whichever resident helpers
// adopted a block, none of which own the Ctx. A *Range method is therefore
// allowed to write only memory that is private to its block or to the
// goroutine running it:
//
//   - elements of the operand slices (op.dst[k], op.perSite[pat], ...) —
//     blocks partition the pattern axis, so element writes are disjoint;
//   - elements reached through Ctx fields (c.sumTab[k], ...) — the same
//     disjointness;
//   - the tile scratch it was handed (ts.a[i], ...): the context's own for
//     the caller, the helper's own otherwise;
//   - its own locals, including local aliases of the above.
//
// Everything else is shared state and a data race waiting for a second
// thread:
//
//   - any store whose path passes through the Engine (c.eng.f = v,
//     e.tbl[i] = v): the engine is shared by every context and every
//     worker;
//   - reassigning or accumulating into a Ctx field directly
//     (c.sumTab = make(...), c.underflow++, c.meter.muls += n): the Ctx
//     is shared by all blocks of the pass, which is exactly why the
//     kernels return their statistics in combineStats/evalPart/... values
//     for the executor to file under the block's index and the caller to
//     fold in block order;
//   - stores through the Ctx's own tile (c.tile.a[i] = v): a helper that
//     adopted the block runs on a foreign Ctx and has been handed its own
//     tile for exactly that reason;
//   - stores to package-level variables.
//
// The check is interprocedural within the package: a helper that performs
// such a write taints every caller (via the same fixed point nondettaint
// uses), so hiding the store one call deep — backend method calls
// c.ensureScratch(), which reassigns c.sumTab — is flagged at the call
// site in the *Range method with the witness chain.
var BackendPurity = &Analyzer{
	Name: "backendpurity",
	Doc:  "Backend *Range methods may write only operand slices and the tile scratch they are handed; stores to Engine/Ctx/shared state are races",
	Match: func(pkgPath string) bool {
		return pathHasAny(pkgPath, likelihoodPkg)
	},
	Run: runBackendPurity,
}

// rangeMethodNames are the Backend interface's per-range kernel entry
// points — combineRows and sumTableFactors run over a block of rows (repeat
// classes, tip codes), the others over a block of patterns; the purity rule applies to any
// receiver method with one of these names (the interface itself is
// unexported, so name matching is the stable anchor — and keeps the golden
// mini-package honest).
var rangeMethodNames = map[string]bool{
	"combineRows":      true,
	"evaluateRange":    true,
	"sumTableFactors":  true,
	"newtonDerivRange": true,
	"newtonValueRange": true,
}

var backendPurityConfig = &TaintConfig{
	// Package-local: the Backend seam is one package; no facts needed.
	Fact:         "",
	DirectReason: directImpureWriteReason,
}

func runBackendPurity(pass *Pass) {
	taint := Propagate(pass, backendPurityConfig)

	for _, node := range pass.CallGraph().Order {
		if node.Decl.Recv == nil || !rangeMethodNames[node.Fn.Name()] {
			continue
		}
		// Direct violating writes, at the write itself.
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			if reason, ok := directImpureWriteReason(pass.Info, n); ok {
				pass.Reportf(n.Pos(),
					"%s in %s: blocks of one pass run concurrently on a shared Ctx — write only operand slices and the tile scratch handed in, and return statistics in the part value", reason, node.Fn.Name())
			}
			return true
		})
		// Laundered writes, at the call site into the impure helper.
		for _, site := range node.Calls {
			if site.Callee.Pkg() != pass.Pkg || rangeMethodNames[site.Callee.Name()] {
				continue // range methods are checked on their own lines
			}
			if reason := taint.Reason(site.Callee); reason != "" {
				pass.Reportf(site.Call.Pos(),
					"%s calls %s, which %s; blocks of one pass run concurrently on a shared Ctx — keep helpers reachable from *Range methods write-free", node.Fn.Name(), calleeLabel(site.Callee), reason)
			}
		}
	}
}

// directImpureWriteReason reports whether n is a store to shared state
// under the Backend purity rule. It is the DirectReason of the purity
// taint, so it must describe the write tersely ("reassigns Ctx field
// sumTab") for witness chains.
func directImpureWriteReason(info *types.Info, n ast.Node) (string, bool) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if n.Tok == token.DEFINE {
			return "", false // := creates locals; selectors cannot appear on its LHS
		}
		for _, lhs := range n.Lhs {
			if r, ok := impureStoreTarget(info, lhs); ok {
				return r, true
			}
		}
	case *ast.IncDecStmt:
		return impureStoreTarget(info, n.X)
	}
	return "", false
}

// impureStoreTarget classifies an assignment target. The spine of the
// LHS expression is walked outside-in:
//
//   - if any receiver along the spine is Engine-typed, the store mutates
//     engine memory (shared by every context) — impure, even through an
//     index (e.eng.tbl[i] = v writes shared memory);
//   - if the outermost target is a selector chain rooted at a Ctx with NO
//     index expression in between, the store replaces or accumulates into
//     a Ctx field itself (c.sumTab = v, c.underflow++, c.meter.muls += n)
//     — impure. With an index on the path (c.sumTab[k] = v) the target is
//     an element of scratch the block owns — pure. The one exception is
//     the Ctx's own tile (c.tile.a[i] = v): it belongs to the goroutine
//     that owns the Ctx, and a helper runs the same method on a Ctx it does
//     not own — impure, use the tile handed in;
//   - if the spine roots at a package-level variable, the store is to
//     process-global state — impure.
func impureStoreTarget(info *types.Info, lhs ast.Expr) (string, bool) {
	indexed := false
	for e := lhs; ; {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			indexed = true
			e = t.X
		case *ast.SelectorExpr:
			sel, ok := info.Selections[t]
			if !ok || sel.Kind() != types.FieldVal {
				return "", false
			}
			if isLikelihoodType(sel.Recv(), "Engine") {
				return "writes Engine state through field " + sel.Obj().Name(), true
			}
			if isLikelihoodType(sel.Recv(), "Ctx") {
				if t.Sel.Name == "tile" {
					return "writes the Ctx's own tile", true
				}
				if !indexed {
					return "writes Ctx field " + t.Sel.Name + " directly", true
				}
			}
			e = t.X
		case *ast.Ident:
			if v, ok := info.Uses[t].(*types.Var); ok && v.Pkg() != nil &&
				v.Parent() == v.Pkg().Scope() {
				return "writes package-level variable " + t.Name, true
			}
			return "", false
		default:
			return "", false
		}
	}
}

// isLikelihoodType reports whether t is the likelihood package's type of the
// given name or a pointer to it.
func isLikelihoodType(t types.Type, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && pathHasAny(obj.Pkg().Path(), likelihoodPkg)
}
