package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func parseSrc(fset *token.FileSet, name, src string) ([]*ast.File, error) {
	f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	return []*ast.File{f}, nil
}

func TestSuppressionDirectives(t *testing.T) {
	// A synthetic package: one file with directives on lines 3 and 7.
	fset := token.NewFileSet()
	src := `package p

//lint:ignore floatcmp exact replay comparison
var a = 1

func f() {
	//lint:ignore simdeterminism,ctxownership documented twice over
	_ = a
}

//lint:ignore all everything is fine here
var b = 2

//lint:ignore floatcmp
var missingReason = 3
`
	f, err := parseSrc(fset, "p.go", src)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &Package{Fset: fset, Path: "x/p", Files: f}

	sups := suppressions(pkg)
	byLine := sups["p.go"]
	if byLine == nil {
		t.Fatal("no suppressions collected")
	}

	cases := []struct {
		line     int
		analyzer string
		want     bool
	}{
		{3, "floatcmp", true},
		{3, "simdeterminism", false},
		{7, "simdeterminism", true},
		{7, "ctxownership", true},
		{7, "floatcmp", false},
		{11, "floatcmp", true}, // "all" covers every analyzer
		{11, "anything", true},
	}
	for _, c := range cases {
		s, ok := byLine[c.line]
		if !ok {
			if c.want {
				t.Errorf("line %d: no directive found, want coverage of %s", c.line, c.analyzer)
			}
			continue
		}
		if got := s.covers(c.analyzer); got != c.want {
			t.Errorf("line %d covers(%s) = %v, want %v", c.line, c.analyzer, got, c.want)
		}
	}

	// A directive without a reason is not a directive at all.
	if _, ok := byLine[14]; ok {
		t.Error("reasonless //lint:ignore should not register")
	}

	// Filtering: a diagnostic on the directive line and on the next line
	// are both covered; two lines below is not. The directive that fired
	// is marked used, the others stay unused for the audit.
	diags := []Diagnostic{
		{Analyzer: "floatcmp", Pos: token.Position{Filename: "p.go", Line: 4}},
		{Analyzer: "floatcmp", Pos: token.Position{Filename: "p.go", Line: 5}},
	}
	out := filterSuppressed(sups, diags)
	if len(out) != 1 || out[0].Pos.Line != 5 {
		t.Errorf("filterSuppressed kept %v, want only the line-5 finding", out)
	}
	if !byLine[3].used {
		t.Error("line-3 directive suppressed the line-4 finding but is not marked used")
	}
	if byLine[7].used || byLine[11].used {
		t.Error("directives that matched nothing must stay unused")
	}
}

func TestPathHasAny(t *testing.T) {
	cases := []struct {
		path string
		frag string
		want bool
	}{
		{"raxmlcell/internal/sim", "internal/sim", true},
		{"raxmlcell/internal/sim/sub", "internal/sim", true},
		{"internal/sim", "internal/sim", true},
		{"raxmlcell/internal/simulator", "internal/sim", false},
		{"raxmlcell/internal/mw [raxmlcell/internal/mw.test]", "internal/mw", true},
		{"other/internal/cellars", "internal/cell", false},
	}
	for _, c := range cases {
		if got := pathHasAny(c.path, c.frag); got != c.want {
			t.Errorf("pathHasAny(%q, %q) = %v, want %v", c.path, c.frag, got, c.want)
		}
	}
}

// TestSimScopes pins the deterministic-replay jurisdiction simdeterminism
// reports in.
func TestSimScopes(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"raxmlcell/internal/sim", true},
		{"raxmlcell/internal/cell", true},
		{"raxmlcell/internal/cellrt", true},
		{"raxmlcell/internal/mw", true},
		{"raxmlcell/internal/fault", true},
		{"raxmlcell/internal/obs", true},
		{"raxmlcell/internal/cellrt [raxmlcell/internal/cellrt.test]", true},
		{"raxmlcell/internal/likelihood", false},
		{"raxmlcell/internal/wallclock", false}, // the one sanctioned wall-clock impl
		{"raxmlcell/internal/cellar", false},    // segment-aligned, no substring tricks
	}
	for _, c := range cases {
		if got := pathHasAny(c.path, simScopes...); got != c.want {
			t.Errorf("%q in simScopes = %v, want %v", c.path, got, c.want)
		}
	}
}
