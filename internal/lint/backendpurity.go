package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BackendPurity enforces the Backend concurrency contract (backend.go): the
// range executor runs several pattern blocks of a single pass concurrently
// over the SAME Engine — the calling goroutine and whichever resident
// helpers adopted a block, none of which own the engine. A *Range method is
// therefore allowed to write only memory that is private to its block or to
// the goroutine running it:
//
//   - elements of the operand slices (op.dst[k], op.perSite[pat], ...) —
//     blocks partition the pattern axis, so element writes are disjoint;
//   - elements reached through the engine's scratch (e.scr.sumTab[k], ...),
//     the fields of its method-less scratch type — the same disjointness;
//   - the tile scratch it was handed (ts.a[i], ...): the engine's own for
//     the caller, the helper's own otherwise;
//   - its own locals, including local aliases of the above.
//
// Everything else is shared state and a data race waiting for a second
// thread:
//
//   - any other store whose path passes through the Engine (e.total++,
//     e.lv[i][k] = v, e.Meter.Muls += n): engine state is shared by every
//     block of the pass, which is exactly why the kernels return their
//     statistics in combineStats/evalPart/... values for the executor to
//     file under the block's index and the caller to fold in block order;
//   - reassigning or accumulating into a scratch field itself
//     (e.scr.sumTab = make(...), e.scr.tabled++): the header is shared by
//     all blocks of the pass;
//   - stores through the owner's tile (e.scr.tile.a[i] = v): a helper that
//     adopted the block runs on a foreign engine and has been handed its own
//     tile for exactly that reason;
//   - stores to package-level variables.
//
// The check is interprocedural within the package: a helper that performs
// such a write taints every caller (via the same fixed point simdeterminism
// uses), so hiding the store one call deep — backend method calls
// e.ensureScratch(), which reassigns e.scr.sumTab — is flagged at the call
// site in the *Range method with the witness chain.
var BackendPurity = &Analyzer{
	Name: "backendpurity",
	Doc:  "Backend *Range methods may write only operand slices, scratch elements and the tile scratch they are handed; stores to Engine/scratch headers/shared state are races",
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
					"%s in %s: blocks of one pass run concurrently on a shared Engine — write only operand slices, scratch elements and the tile scratch handed in, and return statistics in the part value", reason, node.Fn.Name())
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
					"%s calls %s, which %s; blocks of one pass run concurrently on a shared Engine — keep helpers reachable from *Range methods write-free", node.Fn.Name(), calleeLabel(site.Callee), reason)
			}
		}
	}
}

// directImpureWriteReason reports whether n is a store to shared state
// under the Backend purity rule. It is the DirectReason of the purity
// taint, so it must describe the write tersely ("reassigns scratch field
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
//   - a selector on the engine's scratch type ends the walk: with an index
//     on the path (e.scr.sumTab[k] = v) the target is an element of scratch
//     the block owns — pure; without one (e.scr.sumTab = v,
//     e.scr.tabled++) the store replaces or accumulates into the field's
//     header — impure; and the scratch's own tile (e.scr.tile.a[i] = v)
//     belongs to the goroutine that owns the engine, while a helper runs
//     the same method on an engine it does not own — impure, use the tile
//     handed in;
//   - any other selector on the Engine is a store to engine state, shared by
//     every block — impure, even through an index (e.tbl[i] = v writes
//     shared memory);
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
			switch {
			case isLikelihoodType(sel.Recv(), "scratch"): // the engine's per-call kernel scratch
				if t.Sel.Name == "tile" {
					return "writes the owner's tile", true
				}
				if !indexed {
					return "reassigns scratch field " + t.Sel.Name, true
				}
				return "", false
			case isLikelihoodType(sel.Recv(), "Engine"):
				return "writes Engine state through field " + sel.Obj().Name(), true
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
