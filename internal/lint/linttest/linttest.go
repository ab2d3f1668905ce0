// Package linttest is an analysistest-style golden harness for the
// raxmlvet analyzers: a testdata directory holds a small fake package,
// expected findings are written as trailing
//
//	// want "regexp" ["regexp" ...]
//
// comments on the offending lines, and Run fails the test on any
// mismatch in either direction. Suppressed findings (//lint:ignore) are
// filtered before matching, so the suppression path is golden-tested by
// writing a directive and no want comment.
//
// RunPkgs is the multi-package variant for the interprocedural
// analyzers: it type-checks several testdata packages in dependency
// order with a shared fact set — the threading the vet driver performs
// through .vetx files — so golden cases can launder a property through a
// helper package and expect the finding in the dependent one.
package linttest

import (
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"raxmlcell/internal/lint"
)

// The source importer re-typechecks stdlib dependencies from GOROOT
// source; it caches per instance, so all tests share one (guarded: the
// importer is not documented as concurrency-safe).
var (
	fset      = token.NewFileSet()
	impMu     sync.Mutex
	stdSource = importer.ForCompiler(fset, "source", nil)
)

// chainImporter resolves the already-typechecked testdata packages of a
// RunPkgs sequence first and falls back to stdlib source for the rest.
type chainImporter struct {
	local map[string]*types.Package
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := c.local[path]; ok {
		return pkg, nil
	}
	impMu.Lock()
	defer impMu.Unlock()
	return stdSource.Import(path)
}

// PkgSpec names one package of a multi-package golden case: the .go
// files of Dir are analyzed under the pretend import path Path (so
// Analyzer.Match and import statements see realistic paths). Order
// matters: dependencies must precede their importers, exactly like the
// order in which the go command hands packages to a vet tool.
type PkgSpec struct {
	Path string
	Dir  string
}

// Run analyzes the package formed by every .go file in dir under the
// pretend import path pkgPath and compares the diagnostics against the
// // want comments.
func Run(t *testing.T, a *lint.Analyzer, pkgPath, dir string) {
	t.Helper()
	RunPkgs(t, a, []PkgSpec{{Path: pkgPath, Dir: dir}})
}

// RunPkgs analyzes the given packages in order with one shared fact set
// and matches // want comments across all of them. Dependency packages
// are analyzed for real (not facts-only), so a golden case may also
// expect findings inside the helper package.
func RunPkgs(t *testing.T, a *lint.Analyzer, specs []PkgSpec) {
	t.Helper()
	pkgs, diags := Analyze(t, a, specs)
	matchWants(t, pkgs, diags)
}

// Analyze runs a over the given packages in order with one shared fact
// set, as RunPkgs does, and returns the packages and their diagnostics
// without matching them against the want comments.
func Analyze(t *testing.T, a *lint.Analyzer, specs []PkgSpec) ([]*lint.Package, []lint.Diagnostic) {
	t.Helper()

	imp := &chainImporter{local: make(map[string]*types.Package)}
	facts := lint.NewFactSet()
	var pkgs []*lint.Package
	var diags []lint.Diagnostic
	for _, spec := range specs {
		files, err := lint.ParseFiles(fset, goFilesIn(t, spec.Dir))
		if err != nil {
			t.Fatalf("parsing testdata: %v", err)
		}
		pkg, err := lint.TypeCheck(fset, spec.Path, "", files, imp)
		if err != nil {
			t.Fatalf("typechecking testdata: %v", err)
		}
		imp.local[spec.Path] = pkg.Pkg
		pkg.Imported = facts
		diags = append(diags, lint.Run(pkg, []*lint.Analyzer{a})...)
		facts.Merge(pkg.Exported)
		pkgs = append(pkgs, pkg)
	}
	return pkgs, diags
}

// goFilesIn lists the non-directory .go files of dir, sorted.
func goFilesIn(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading testdata dir: %v", err)
	}
	var filenames []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			filenames = append(filenames, filepath.Join(dir, e.Name()))
		}
	}
	if len(filenames) == 0 {
		t.Fatalf("no .go files in %s", dir)
	}
	sort.Strings(filenames)
	return filenames
}

// matchWants compares diagnostics against the want comments of every
// package, failing on mismatches in either direction.
func matchWants(t *testing.T, pkgs []*lint.Package, diags []lint.Diagnostic) {
	t.Helper()

	var wants []want
	for _, pkg := range pkgs {
		wants = append(wants, collectWants(t, pkg)...)
	}
	type key struct {
		file string
		line int
	}
	unmatched := make(map[key][]*want)
	for i := range wants {
		w := &wants[i]
		k := key{w.file, w.line}
		unmatched[k] = append(unmatched[k], w)
	}

	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		matched := false
		for _, w := range unmatched[k] {
			if !w.used && w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s:%d: %s", d.Pos.Filename, d.Pos.Line, d.Message)
		}
	}
	for _, ws := range unmatched {
		for _, w := range ws {
			if !w.used {
				t.Errorf("no diagnostic matched want %q at %s:%d", w.re, w.file, w.line)
			}
		}
	}
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
	used bool
}

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)
var wantArgRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"|` + "`([^`]*)`")

func collectWants(t *testing.T, pkg *lint.Package) []want {
	t.Helper()
	var wants []want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				args := wantArgRe.FindAllStringSubmatch(m[1], -1)
				if len(args) == 0 {
					t.Fatalf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
				}
				for _, a := range args {
					pat := a[1]
					if a[2] != "" {
						pat = a[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}
