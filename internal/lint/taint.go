package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// This file is the reusable ownership/taint dataflow walker behind the
// interprocedural analyzers: a deterministic fixed-point propagation of
// per-function properties ("calls the wall clock", "ranges over a map")
// along the package-local call graph, seeded by direct inspection of each
// body and by imported cross-package facts.

// maxReasonLen caps witness chains so a deep laundering stack produces a
// readable diagnostic instead of a paragraph.
const maxReasonLen = 160

// truncateReason shortens a witness chain at a word-ish boundary.
func truncateReason(s string) string {
	if len(s) <= maxReasonLen {
		return s
	}
	return s[:maxReasonLen] + "..."
}

// TaintConfig parameterizes one fixed-point propagation over a package's
// call graph.
type TaintConfig struct {
	// Fact is the cross-package fact name carrying the property
	// ("nondet"). Imported facts under this name seed callee taint, and
	// every tainted declared function is exported under it. Empty means
	// the property is package-local: nothing is imported or exported.
	Fact string

	// DirectReason inspects one AST node of a function body and reports
	// a direct source of the property, with a witness description.
	DirectReason func(info *types.Info, n ast.Node) (string, bool)
}

// Taint is the result of a propagation: for each tainted declared
// function, the witness reason; and for each call site whose callee is
// tainted (locally or by imported fact), the callee and its reason.
type Taint struct {
	cfg     *TaintConfig
	pass    *Pass
	reasons map[*types.Func]string
}

// Reason returns the witness for fn — a function declared in this package
// or an imported one carrying the fact — or "" when fn is clean.
func (t *Taint) Reason(fn *types.Func) string {
	if r, ok := t.reasons[fn]; ok {
		return r
	}
	if t.cfg.Fact != "" && fn.Pkg() != nil && t.pass.Pkg != nil && fn.Pkg() != t.pass.Pkg {
		if v, ok := t.pass.ImportedFact(fn, t.cfg.Fact); ok {
			return v
		}
	}
	return ""
}

// Propagate runs the deterministic fixed point: seed every declared
// function with its first direct source (by position), then repeatedly
// fold in calls to tainted callees — local or imported — until nothing
// changes, always scanning functions in declaration order and call sites
// in source order so the recorded witness is reproducible. Every tainted
// function is exported as a fact for downstream packages.
func Propagate(pass *Pass, cfg *TaintConfig) *Taint {
	cg := pass.CallGraph()
	t := &Taint{cfg: cfg, pass: pass, reasons: make(map[*types.Func]string)}

	for _, node := range cg.Order {
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			if _, done := t.reasons[node.Fn]; done {
				return false
			}
			if reason, ok := cfg.DirectReason(pass.Info, n); ok {
				t.reasons[node.Fn] = reason
			}
			return true
		})
	}

	for changed := true; changed; {
		changed = false
		for _, node := range cg.Order {
			if _, done := t.reasons[node.Fn]; done {
				continue
			}
			for _, site := range node.Calls {
				r := t.Reason(site.Callee)
				if r == "" {
					continue
				}
				t.reasons[node.Fn] = truncateReason(
					fmt.Sprintf("calls %s, which %s", calleeLabel(site.Callee), r))
				changed = true
				break
			}
		}
	}

	if cfg.Fact != "" {
		for _, node := range cg.Order {
			if r, ok := t.reasons[node.Fn]; ok {
				pass.ExportFact(node.Fn, cfg.Fact, r)
			}
		}
	}
	return t
}

// calleeLabel renders a callee compactly for witness chains: pkg.Func or
// (pkg.Recv).Method, with only the last path segment of the package.
func calleeLabel(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return types.TypeString(sig.Recv().Type(), types.RelativeTo(fn.Pkg())) + "." + fn.Name()
	}
	return fn.Pkg().Name() + "." + fn.Name()
}
