package raxmlcell

import (
	"bytes"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// goTestRun matches a go test command line with a -run pattern: its flags
// before the pattern, the pattern, and the rest of the line.
var goTestRun = regexp.MustCompile(`(?m)(?:\bgo|\$\(GO\)) test([^'\n]*)-run '([^']+)'([^\n]*)$`)

// continued matches a backslash line continuation and the next line's indent.
var continued = regexp.MustCompile(`\\\n[ \t]*`)

// runPatterns maps each go test -run command of text, its continued lines
// joined, keyed by whether it runs under the race detector and by its
// packages, to the sorted names in its pattern.
func runPatterns(t *testing.T, text string) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	for _, m := range goTestRun.FindAllStringSubmatch(continued.ReplaceAllString(text, " "), -1) {
		var pkgs []string
		for _, f := range strings.Fields(m[3]) {
			if !strings.HasPrefix(f, "-") {
				pkgs = append(pkgs, f)
			}
		}
		if len(pkgs) == 0 {
			t.Fatalf("go test line without a package: %q", m[0])
		}
		key := strings.Join(pkgs, " ")
		if strings.Contains(m[1]+m[3], "-race") {
			key = "-race " + key
		}
		names := strings.Split(m[2], "|")
		slices.Sort(names)
		if _, dup := out[key]; dup {
			t.Fatalf("two go test lines for %s", key)
		}
		out[key] = names
	}
	return out
}

// section returns the part of text from the first line that is exactly start
// to the line before the next one matching end.
func section(t *testing.T, text, start string, end *regexp.Regexp) string {
	t.Helper()
	i := strings.Index(text, "\n"+start+"\n")
	if i < 0 {
		t.Fatalf("no line %q", start)
	}
	rest := text[i+len(start)+2:]
	if j := end.FindStringIndex(rest); j != nil {
		rest = rest[:j[0]]
	}
	return rest
}

// TestGatesMirrorCI: each gate that runs both as a make target and as a CI
// job of the same name (backend-gate, obs-gate, chaos) is the local mirror
// of that job, so for every package list and race mode the go test -run
// patterns of the two name the same tests.
func TestGatesMirrorCI(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	for _, gate := range []string{"backend-gate", "obs-gate", "chaos"} {
		t.Run(gate, func(t *testing.T) {
			local := runPatterns(t, section(t, string(mk), gate+":", regexp.MustCompile(`(?m)^\S`)))
			job := runPatterns(t, section(t, string(ci), "  "+gate+":", regexp.MustCompile(`(?m)^  \S`)))
			if len(local) == 0 {
				t.Fatalf("make %s runs no go test -run line", gate)
			}
			for key, names := range local {
				if !slices.Equal(names, job[key]) {
					t.Errorf("go test %s: make %s runs\n  %s\nCI's %s job\n  %s", key, gate, strings.Join(names, "|"), gate, strings.Join(job[key], "|"))
				}
			}
			for key, names := range job {
				if _, ok := local[key]; !ok {
					t.Errorf("go test %s: CI's %s job runs %s, make %s nothing", key, gate, strings.Join(names, "|"), gate)
				}
			}
		})
	}
}

// codeCeiling is the most non-test Go lines the repository may hold outside
// benchmark/ and testdata/, counted after gofmt. It only moves down: a change
// that deletes code lowers it to the new count, and one that must raise it
// states in CHANGES.md the measured win that pays for the lines.
const codeCeiling = 16171

// TestCodeBudget counts the gofmt'd lines of every non-test Go file outside
// benchmark/ and testdata/ and fails above codeCeiling.
func TestCodeBudget(t *testing.T) {
	lines := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case "benchmark", "testdata", ".git":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		formatted, err := format.Source(src)
		if err != nil {
			return err
		}
		lines += bytes.Count(formatted, []byte("\n"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if lines > codeCeiling {
		t.Errorf("%d non-test Go lines outside benchmark/ and testdata/, ceiling %d", lines, codeCeiling)
	}
	t.Logf("%d non-test Go lines, ceiling %d", lines, codeCeiling)
}

// packageVarAllowed names every package-level variable non-test code in
// internal/search and internal/likelihood may declare, each with why it is
// one. Anything else there is state a test could flip for the whole process:
// a behaviour a test needs is a field (search's policy, likelihood's
// Config.noRepeats), never a global.
var packageVarAllowed = map[string]string{
	"executor":      "the range executor: one per process, shared by every engine",
	"simd":          "the CPU's vector kernels, nil where it has none; set at init, never by a test",
	"TwoTo256":      "scaling constant; math.Ldexp is not a constant expression",
	"MinLikelihood": "scaling constant; math.Ldexp is not a constant expression",
	"logMinLik":     "scaling constant; math.Log is not a constant expression",
}

// TestNoPackageVarsInSearchAndLikelihood parses the non-test Go files of
// internal/search and internal/likelihood and fails on any package-level var
// that packageVarAllowed does not name.
func TestNoPackageVarsInSearchAndLikelihood(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{"internal/search", "internal/likelihood"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					for _, name := range spec.(*ast.ValueSpec).Names {
						if _, ok := packageVarAllowed[name.Name]; !ok {
							t.Errorf("%s: package-level var %s: make it a field, or add it to packageVarAllowed with its reason", fset.Position(name.Pos()), name.Name)
						}
					}
				}
			}
		}
	}
}
