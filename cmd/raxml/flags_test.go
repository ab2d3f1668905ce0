package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// flagCeiling is the most flags raxml may define. It only moves down: a flag
// that earns its way in raises it in the change that adds the flag's audit
// row, which names the flag's second value and who runs it.
const flagCeiling = 22

// definedFlags returns the name of every flag main.go defines: the name
// argument of each flag.<Type>(name, …) or flag.<Type>Var(p, name, …) call.
func definedFlags(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		arg := 0
		if strings.HasSuffix(sel.Sel.Name, "Var") {
			arg = 1
		}
		if len(call.Args) <= arg {
			return true // flag.Parse, flag.Usage
		}
		lit, ok := call.Args[arg].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			t.Errorf("flag.%s defines a flag whose name is not a string literal", sel.Sel.Name)
			return true
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
		return true
	})
	return names
}

// TestFlagAudit: every flag raxml defines has exactly one row in DESIGN.md's
// table of raxml flags, every row there names a flag raxml defines, and
// there are at most flagCeiling of them.
func TestFlagAudit(t *testing.T) {
	design, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(design)
	start := strings.Index(text, "<!-- raxml flags table -->")
	if start < 0 {
		t.Fatal("DESIGN.md has no raxml flags table marker")
	}
	row := regexp.MustCompile("^\\| `-([^`]+)`")
	rows := map[string]int{}
	for _, line := range strings.Split(text[start:], "\n")[1:] {
		if !strings.HasPrefix(line, "|") {
			if len(rows) > 0 {
				break
			}
			continue
		}
		if m := row.FindStringSubmatch(line); m != nil {
			rows[m[1]]++
		}
	}
	defined := definedFlags(t)
	if len(defined) > flagCeiling {
		t.Errorf("raxml defines %d flags, ceiling %d", len(defined), flagCeiling)
	}
	var missing, twice, stale []string
	for _, name := range defined {
		switch rows[name] {
		case 0:
			missing = append(missing, "-"+name)
		case 1:
		default:
			twice = append(twice, "-"+name)
		}
	}
	for name := range rows {
		if !slices.Contains(defined, name) {
			stale = append(stale, "-"+name)
		}
	}
	slices.Sort(stale)
	if len(missing) > 0 {
		t.Errorf("raxml flags without a row in DESIGN.md's flag audit: %v", missing)
	}
	if len(twice) > 0 {
		t.Errorf("raxml flags with more than one row in DESIGN.md's flag audit: %v", twice)
	}
	if len(stale) > 0 {
		t.Errorf("rows of DESIGN.md's flag audit that name no raxml flag: %v", stale)
	}
}
