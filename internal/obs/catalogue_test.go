package obs_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"raxmlcell/internal/likelihood"
)

// registeredSeries collects the name of every series the program can
// register, from the source under internal/ and cmd/: the literal names of
// Registry.Counter/Gauge/Histogram calls (obs.Key's base name for labelled
// series), the mw supervisor's count calls, the meter fields PublishMeter
// republishes as "kernel.<field>", and the kernel latency histograms
// NewKernelHists registers per backend.
func registeredSeries(t *testing.T, root string) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	for op := likelihood.KernelOp(0); op < likelihood.NumKernelOps; op++ {
		out["kernel.<backend>."+op.String()+"_ms"] = true
	}
	literal := func(e ast.Expr) (string, bool) {
		if call, ok := e.(*ast.CallExpr); ok && len(call.Args) > 0 {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Key" {
				e = call.Args[0]
			}
		}
		lit, ok := e.(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(lit.Value)
		return s, err == nil
	}
	for _, dir := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil {
				return err
			}
			bridge := filepath.Base(path) == "bridge.go" && f.Name.Name == "obs"
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				var fn string
				switch f := call.Fun.(type) {
				case *ast.SelectorExpr:
					fn = f.Sel.Name
				case *ast.Ident:
					fn = f.Name
				}
				name, ok := literal(call.Args[0])
				if !ok {
					return true
				}
				switch {
				case (fn == "Counter" || fn == "Gauge") && len(call.Args) == 1,
					fn == "Histogram" && len(call.Args) == 2,
					fn == "count" && strings.Contains(name, "."):
					out[name] = true
				case fn == "set" && bridge:
					out["kernel."+name] = true
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestMetricCatalogue: every series the program can register is a row of
// README's metrics table, and every row there names one it can.
func TestMetricCatalogue(t *testing.T) {
	root := filepath.Join("..", "..")
	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(readme)
	start := strings.Index(text, "<!-- metrics table -->")
	if start < 0 {
		t.Fatal("README.md has no metrics table marker")
	}
	row := regexp.MustCompile("(?m)^\\| `([^`]+)`")
	listed := map[string]bool{}
	for _, line := range strings.Split(text[start:], "\n")[1:] {
		if !strings.HasPrefix(line, "|") {
			if len(listed) > 0 {
				break
			}
			continue
		}
		if m := row.FindStringSubmatch(line); m != nil {
			listed[m[1]] = true
		}
	}
	registered := registeredSeries(t, root)
	var missing, stale []string
	for name := range registered {
		if !listed[name] {
			missing = append(missing, name)
		}
	}
	for name := range listed {
		if !registered[name] {
			stale = append(stale, name)
		}
	}
	slices.Sort(missing)
	slices.Sort(stale)
	if len(missing) > 0 {
		t.Errorf("registered but not in README's metrics table: %v", missing)
	}
	if len(stale) > 0 {
		t.Errorf("in README's metrics table but registered nowhere: %v", stale)
	}
}
