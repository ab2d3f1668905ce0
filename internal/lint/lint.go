// Package lint is a project-specific static-analysis suite for the
// RAxML-Cell reproduction. It mechanically enforces the invariants that no
// test can see, which the codebase would otherwise trust to reviewer memory:
//
//   - simdeterminism: the discrete-event Cell simulator must be
//     bit-deterministic (no wall clock, no global RNG, no map-order
//     dependent event scheduling), or the cycle-accurate tables in
//     EXPERIMENTS.md stop being reproducible — neither at a use site in
//     the simulator scope nor through a call that reaches such a source
//     in another package (cross-package facts, see FactSet).
//   - floatcmp: floating-point == / != is forbidden outside a small
//     allowlist; call sites should use tolerance helpers instead.
//   - ctxownership: a likelihood.Engine is published through an atomic
//     pointer only by the range executor's Engine.runPass.
//   - backendpurity: a Backend's *Range methods write only their operand
//     slices, scratch elements and tile, never engine or shared state.
//
// That the hot paths do not allocate is measured, not linted:
// testing.AllocsPerRun tests in likelihood, search, parsimony and obs
// count every allocation of the functions those paths call.
//
// Every full run also audits //lint:ignore directives and reports those
// that suppress nothing or name no analyzer of the suite
// (unusedsuppression).
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer / Pass / Diagnostic) but is self-contained on the standard
// library, so the repo stays dependency-free. cmd/raxmlvet runs the
// analyzers as a `go vet -vettool` backend, its one driver.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named check, in the image of analysis.Analyzer.
type Analyzer struct {
	Name string // short lower-case identifier, used in //lint:ignore directives
	Doc  string // one-paragraph description of the enforced invariant

	// Match restricts the analyzer to packages whose import path
	// satisfies it; nil means every package.
	Match func(pkgPath string) bool

	// Facts marks the analyzer as interprocedural: it exports facts about
	// package-level functions for downstream packages. Fact analyzers run
	// on every loaded package — including dependency-only passes where
	// diagnostics are discarded (Package.FactsOnly) — so taint can follow
	// calls into packages outside the analyzer's reporting scope.
	Facts bool

	// Run inspects the package and reports findings through the pass.
	Run func(*Pass)
}

// Package is one type-checked package ready for analysis.
type Package struct {
	Fset *token.FileSet
	Path string // import path used for Analyzer.Match
	Pkg  *types.Package
	Info *types.Info

	// Files holds every parsed file of the package, including *_test.go
	// files when the driver handed them over. Analyzers use
	// Pass.NonTestFiles to skip test sources.
	Files []*ast.File

	// Imported carries the facts of this package's dependencies (merged);
	// nil means no facts are available. Exported collects the facts the
	// fact-producing analyzers derive about this package; Run fills it.
	Imported *FactSet
	Exported *FactSet

	// FactsOnly marks a dependency pass: only fact-producing analyzers
	// run and every diagnostic is discarded. The vet driver sets it for
	// VetxOnly invocations (dependencies of the vetted packages).
	FactsOnly bool

	cg *CallGraph // lazily built package-local call graph, see Pass.CallGraph
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	*Package

	diags *[]Diagnostic
}

// ImportedFact looks up a fact recorded on fn by the analysis of another
// package (threaded through .vetx files under go vet, or in memory by
// linttest.RunPkgs).
func (p *Pass) ImportedFact(fn *types.Func, name string) (string, bool) {
	if p.Imported == nil {
		return "", false
	}
	return p.Imported.Get(ObjectKey(fn), name)
}

// ExportFact records a fact about fn (a function declared in this
// package) for downstream packages.
func (p *Pass) ExportFact(fn *types.Func, name, value string) {
	p.Exported.Add(ObjectKey(fn), name, value)
}

// Diagnostic is one finding, attributed to the analyzer that produced it.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders d as the vet finding line, "file:line:col: message
// (analyzer)" — the format CI turns into annotations.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// NonTestFiles returns the package files that are not _test.go sources.
// Every analyzer in this suite skips test files: determinism of tests is
// enforced by seeds and -race, and tests deliberately compare bit-identical
// floating-point replays.
func (p *Pass) NonTestFiles() []*ast.File {
	var out []*ast.File
	for _, f := range p.Files {
		name := p.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(filepath.Base(name), "_test.go") {
			continue
		}
		out = append(out, f)
	}
	return out
}

// Run executes the analyzers over the package and returns the surviving
// diagnostics: findings on lines covered by a matching //lint:ignore
// directive are dropped. Results are ordered by position then analyzer.
// On a FactsOnly package only fact-producing analyzers run and no
// diagnostics are returned; either way pkg.Exported holds the facts the
// pass derived.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	diags, _ := run(pkg, analyzers)
	return diags
}

// RunWithAudit runs the full suite, All(), plus the suppression audit: a
// //lint:ignore directive that names an analyzer the suite does not have,
// or that suppressed nothing, is an "unusedsuppression" finding. Only a
// full-suite run can judge a directive (linttest runs one analyzer at a
// time through Run, and its testdata directives for other analyzers must
// not trip the audit); the vet driver runs every package through it so
// suppression debt cannot accumulate silently. Directives in _test.go
// files are audited too — the suite skips test sources entirely, so a
// directive there is stale by definition.
func RunWithAudit(pkg *Package) []Diagnostic {
	suite := All()
	diags, sups := run(pkg, suite)
	if pkg.FactsOnly {
		return diags
	}
	known := make(map[string]bool, len(suite))
	for _, a := range suite {
		known[a.Name] = true
	}
	for _, byLine := range sups {
		for _, s := range byLine {
			var unknown []string
			for name := range s.analyzers {
				if !known[name] {
					unknown = append(unknown, name)
				}
			}
			var msg string
			switch {
			case len(unknown) > 0:
				sort.Strings(unknown)
				msg = fmt.Sprintf("//lint:ignore %s directive names %s, which is no analyzer of the suite; remove it (or fix the analyzer name)",
					s.names, strings.Join(unknown, ", "))
			case !s.used:
				msg = fmt.Sprintf("//lint:ignore %s directive suppresses nothing; remove it (or fix the analyzer name)", s.names)
			default:
				continue
			}
			diags = append(diags, Diagnostic{Analyzer: "unusedsuppression", Pos: s.pos, Message: msg})
		}
	}
	sortDiagnostics(diags)
	return diags
}

func run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, map[string]map[int]*suppression) {
	if pkg.Exported == nil {
		pkg.Exported = NewFactSet()
	}
	var diags []Diagnostic
	for _, a := range analyzers {
		if pkg.FactsOnly && !a.Facts {
			continue
		}
		if a.Match != nil && !a.Match(pkg.Path) {
			continue
		}
		pass := &Pass{Analyzer: a, Package: pkg, diags: &diags}
		a.Run(pass)
	}
	if pkg.FactsOnly {
		return nil, nil
	}
	sups := suppressions(pkg)
	diags = filterSuppressed(sups, diags)
	sortDiagnostics(diags)
	return diags, sups
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// ignoreRe matches suppression directives:
//
//	//lint:ignore <name>[,<name>...] <reason>
//
// The directive must carry a non-empty reason and applies to findings on
// its own line (trailing comment) or on the next line (comment above the
// offending statement). <name> is an analyzer name or "all".
var ignoreRe = regexp.MustCompile(`^//lint:ignore\s+(\S+)\s+(.+)$`)

type suppression struct {
	analyzers map[string]bool // nil means all
	names     string          // the directive's name list, verbatim, for audit messages
	pos       token.Position  // directive position, for audit diagnostics
	used      bool            // the directive suppressed at least one finding this run
}

// suppressions maps filename -> line -> directive for the package.
func suppressions(pkg *Package) map[string]map[int]*suppression {
	out := make(map[string]map[int]*suppression)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				sup := &suppression{names: m[1], pos: pos}
				if m[1] != "all" {
					sup.analyzers = make(map[string]bool)
					for _, name := range strings.Split(m[1], ",") {
						sup.analyzers[name] = true
					}
				}
				byLine := out[pos.Filename]
				if byLine == nil {
					byLine = make(map[int]*suppression)
					out[pos.Filename] = byLine
				}
				byLine[pos.Line] = sup
			}
		}
	}
	return out
}

func (s *suppression) covers(analyzer string) bool {
	return s.analyzers == nil || s.analyzers[analyzer]
}

func filterSuppressed(sups map[string]map[int]*suppression, diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		byLine := sups[d.Pos.Filename]
		if byLine != nil {
			if s, ok := byLine[d.Pos.Line]; ok && s.covers(d.Analyzer) {
				s.used = true
				continue
			}
			if s, ok := byLine[d.Pos.Line-1]; ok && s.covers(d.Analyzer) {
				s.used = true
				continue
			}
		}
		out = append(out, d)
	}
	return out
}

// pathHasAny reports whether the import path contains one of the given
// slash-separated fragments as a segment-aligned substring. The bracketed
// " [foo.test]" suffix go list/vet attach to test variants is ignored.
func pathHasAny(pkgPath string, fragments ...string) bool {
	if i := strings.IndexByte(pkgPath, ' '); i >= 0 {
		pkgPath = pkgPath[:i]
	}
	for _, frag := range fragments {
		if pkgPath == frag || strings.HasSuffix(pkgPath, "/"+frag) ||
			strings.HasPrefix(pkgPath, frag+"/") || strings.Contains(pkgPath, "/"+frag+"/") {
			return true
		}
	}
	return false
}

// pkgFuncObject resolves a selector expression like time.Now to the
// package-level object it denotes, or nil when sel is not a qualified
// identifier (e.g. a method selection or field access).
func pkgFuncObject(info *types.Info, sel *ast.SelectorExpr) types.Object {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	if _, ok := info.Uses[id].(*types.PkgName); !ok {
		return nil
	}
	return info.Uses[sel.Sel]
}
