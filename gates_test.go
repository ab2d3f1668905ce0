package raxmlcell

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunsMakeGates: the Makefile alone defines the gates. CI runs its gate
// targets and no gate command itself, and make fuzz runs every Fuzz* target.
func TestCIRunsMakeGates(t *testing.T) {
	mk, mkErr := os.ReadFile("Makefile")
	ci, ciErr := os.ReadFile(".github/workflows/ci.yml")
	if err := errors.Join(mkErr, ciErr); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?s)\n +gate: \[([^\]]*)\]\n.*\n +run: make \$\{\{ matrix\.gate \}\}\n`).FindSubmatch(ci)
	if m == nil || string(m[1]) != "backend-gate, obs-gate, chaos, fuzz, trace" {
		t.Fatal("ci.yml has no job running make ${{ matrix.gate }} over backend-gate, obs-gate, chaos, fuzz and trace")
	}
	for _, gate := range strings.Split(string(m[1]), ", ") {
		t.Run(gate, func(t *testing.T) {
			if !bytes.Contains(mk, []byte("\n"+gate+":")) {
				t.Errorf("ci.yml runs make %s, which the Makefile does not define", gate)
			}
		})
	}
	for _, cmd := range regexp.MustCompile(`-run '|jq -e|\./cmd/(?:raxml|seqgen)\b|\./benchmark\b`).FindAll(ci, -1) {
		t.Errorf("ci.yml runs a gate's command (%s) itself: it belongs in a Makefile target", cmd)
	}
	fuzz := regexp.MustCompile(`(?m)^func (Fuzz\w*)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && (d.Name() == "testdata" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if err != nil || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, f := range fuzz.FindAllSubmatch(src, -1) {
			if !bytes.Contains(mk, fmt.Appendf(nil, " -fuzz=%s -fuzztime=$(FUZZTIME) ./%s\n", f[1], filepath.ToSlash(filepath.Dir(path)))) {
				t.Errorf("%s: make fuzz does not run %s", path, f[1])
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// codeCeiling is the most non-test Go lines the repository may hold outside
// benchmark/ and testdata/, counted after gofmt. It only moves down: a change
// that deletes code lowers it to the new count, and one that must raise it
// states in CHANGES.md the measured win that pays for the lines.
const codeCeiling = 16072

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

// fusedOp matches an x86 fused multiply-add mnemonic at the start of an
// assembly instruction.
var fusedOp = regexp.MustCompile(`(?m)^\s*(?:[A-Za-z_][\w·]*:\s*)?(VF(?:N?MADD|N?MSUB)\w*)\b`)

// TestNoFusedMultiplyAddInAssembly fails on any VFMADD*, VFMSUB*, VFNMADD*
// or VFNMSUB* instruction in a .s file under internal/: a fused lane rounds
// once where the Go loop it mirrors rounds twice, so the vector bodies'
// bits would leave the scalar oracle's.
func TestNoFusedMultiplyAddInAssembly(t *testing.T) {
	files := 0
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".s") {
			return err
		}
		files++
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fusedOp.FindAllSubmatchIndex(src, -1) {
			line := 1 + bytes.Count(src[:m[2]], []byte("\n"))
			t.Errorf("%s:%d: fused multiply-add %s", path, line, src[m[2]:m[3]])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no .s file under internal/: the test reads nothing")
	}
}
