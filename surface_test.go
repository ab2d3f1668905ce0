package raxmlcell

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// surfaceDecl is one exported declaration of a library package: a func, a
// method, a type, or one name of a var or const spec.
type surfaceDecl struct {
	key      string // pkg.Name, or pkg.Type.Name for a method
	name     string
	method   bool
	path     string // the declaring package's import path
	pos, end token.Pos
}

// surfaceUses is every name the non-test files name, by the way they name it.
type surfaceUses struct {
	qualified map[string]bool        // import path + "." + name, as pkg.Name
	member    map[string][]token.Pos // x.Name where x is not a package
	bare      map[string][]token.Pos // import path + "." + name, a plain identifier in that package
}

// outside reports whether some position of ps lies outside [pos, end).
func outside(ps []token.Pos, pos, end token.Pos) bool {
	return slices.ContainsFunc(ps, func(p token.Pos) bool { return p < pos || p >= end })
}

// receiverType returns the name of a method receiver's type.
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// scanSurface parses every non-test Go file of the module at root outside
// testdata/ and returns the exported declarations of the library packages
// that some other package's non-test file imports, and the names those
// files use.
func scanSurface(t *testing.T, root string) ([]surfaceDecl, surfaceUses) {
	t.Helper()
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	module := strings.TrimSpace(strings.TrimPrefix(strings.SplitN(string(mod), "\n", 2)[0], "module"))

	type file struct {
		path string // the file's package's import path
		f    *ast.File
	}
	fset := token.NewFileSet()
	var files []file
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		files = append(files, file{path.Join(module, filepath.ToSlash(rel)), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	uses := surfaceUses{map[string]bool{}, map[string][]token.Pos{}, map[string][]token.Pos{}}
	imported := map[string]bool{} // import paths another package imports
	for _, fl := range files {
		imports := map[string]string{} // local name → import path
		for _, spec := range fl.f.Imports {
			p := strings.Trim(spec.Path.Value, `"`)
			name := path.Base(p)
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = p
			if p != fl.path {
				imported[p] = true
			}
		}
		skip := map[*ast.Ident]bool{}
		ast.Inspect(fl.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				skip[n.Name] = true
				if n.Recv != nil {
					ast.Inspect(n.Recv, func(m ast.Node) bool {
						if id, ok := m.(*ast.Ident); ok {
							skip[id] = true
						}
						return true
					})
				}
			case *ast.TypeSpec:
				skip[n.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					skip[id] = true
				}
			case *ast.SelectorExpr:
				skip[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						uses.qualified[p+"."+n.Sel.Name] = true
						skip[x] = true
						return true
					}
				}
				uses.member[n.Sel.Name] = append(uses.member[n.Sel.Name], n.Sel.Pos())
			case *ast.Ident:
				if !skip[n] {
					key := fl.path + "." + n.Name
					uses.bare[key] = append(uses.bare[key], n.Pos())
				}
			}
			return true
		})
	}

	var decls []surfaceDecl
	for _, fl := range files {
		if fl.f.Name.Name == "main" || !imported[fl.path] {
			continue
		}
		pkg := fl.f.Name.Name
		for _, d := range fl.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				key, method := pkg+"."+d.Name.Name, d.Recv != nil
				if method {
					key = pkg + "." + receiverType(d.Recv.List[0].Type) + "." + d.Name.Name
				}
				decls = append(decls, surfaceDecl{key, d.Name.Name, method, fl.path, d.Pos(), d.End()})
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							decls = append(decls, surfaceDecl{pkg + "." + s.Name.Name, s.Name.Name, false, fl.path, s.Pos(), s.End()})
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							if id.IsExported() {
								decls = append(decls, surfaceDecl{pkg + "." + id.Name, id.Name, false, fl.path, s.Pos(), s.End()})
							}
						}
					}
				}
			}
		}
	}
	return decls, uses
}

// used reports whether a non-test file names d outside d's own declaration:
// a method by any x.Name, anything else as pkg.Name from another package or
// as a plain identifier in its own.
func (u surfaceUses) used(d surfaceDecl) bool {
	if d.method {
		return outside(u.member[d.name], d.pos, d.end)
	}
	key := d.path + "." + d.name
	return u.qualified[key] || outside(u.bare[key], d.pos, d.end)
}

// surfaceRows returns the names of the library-surface table in root's
// DESIGN.md whose verdict starts with "Kept".
func surfaceRows(t *testing.T, root string) map[string]bool {
	t.Helper()
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(design)
	start := strings.Index(text, "<!-- library surface table -->")
	if start < 0 {
		t.Fatal("DESIGN.md has no library surface table marker")
	}
	row := regexp.MustCompile("^\\| `([^`]+)` \\|.*\\| \\**Kept")
	kept := map[string]bool{}
	seen := false
	for _, line := range strings.Split(text[start:], "\n")[1:] {
		if !strings.HasPrefix(line, "|") {
			if seen {
				break
			}
			continue
		}
		seen = true
		if m := row.FindStringSubmatch(line); m != nil {
			kept[m[1]] = true
		}
	}
	return kept
}

// auditSurface returns, sorted, the in-scope declarations of the module at
// root that no non-test file names and no Kept row keeps, and the Kept rows
// that name no declaration; n is the number of declarations in scope.
func auditSurface(t *testing.T, root string) (unused, stale []string, n int) {
	t.Helper()
	decls, uses := scanSurface(t, root)
	kept := surfaceRows(t, root)
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		if !kept[d.key] && !uses.used(d) {
			unused = append(unused, d.key)
		}
	}
	for name := range kept {
		if !declared[name] {
			stale = append(stale, name)
		}
	}
	slices.Sort(unused)
	slices.Sort(stale)
	return unused, stale, len(decls)
}

// TestLibrarySurface: every exported func, method, type, var and const of a
// package that another package's non-test code imports is named by some
// non-test file outside its own declaration (cmd/, examples/ and benchmark/
// count), or has a Kept row in DESIGN.md's library-surface table saying which
// test or reason keeps it; and every Kept row names a declaration. Packages
// that only tests import (treegen, coldref, linttest, nstate) and struct
// fields are out of scope. staticcheck's U1000 cannot see these names: it
// counts a test's use as a use.
func TestLibrarySurface(t *testing.T) {
	unused, stale, n := auditSurface(t, ".")
	if len(unused) > 0 {
		t.Errorf("exported names no non-test code names, without a Kept row in DESIGN.md's library-surface table (delete them, or add the row naming the test or reason that keeps them):\n  %s", strings.Join(unused, "\n  "))
	}
	if len(stale) > 0 {
		t.Errorf("Kept rows of DESIGN.md's library-surface table that name no exported declaration: %v", stale)
	}
	t.Logf("%d exported names in scope, %d kept by a row", n, len(surfaceRows(t, ".")))
}

// writeSurfaceFixture writes a small module: a library package lib that a
// main package imports, a test file that calls what main does not, and a
// DESIGN.md with a library-surface table of two Kept rows, one naming a
// declaration of lib and one naming nothing.
func writeSurfaceFixture(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module fixture\n\ngo 1.24\n",
		"lib/lib.go": `package lib

func Used()   {}
func Unused() {}
func Self()   { Self() }

type T struct{}

func (T) Called() {}
func (T) Orphan() {}

const Kept = 1

var Dead = 2

func helper() {}
`,
		"lib/lib_test.go": `package lib

import "testing"

func TestAll(t *testing.T) { Unused(); T{}.Orphan(); _ = Dead }
`,
		"lib/testdata/skip.go": "package skip\n\nfunc Ignored() {}\n",
		"cmd/main.go": `package main

import "fixture/lib"

func main() { lib.Used(); lib.T{}.Called() }
`,
		"DESIGN.md": "# Design\n\n<!-- library surface table -->\n" +
			"| name | lines | former callers | verdict |\n|---|---|---|---|\n" +
			"| `lib.Kept` | 1 | `TestAll` | **Kept**: the test's reference. |\n" +
			"| `lib.Gone` | 1 | none | **Kept**: deleted since. |\n" +
			"| `lib.Old` | 3 | none | **Deleted**. |\n\nAfter the table.\n",
	}
	for name, text := range files {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestLibrarySurfaceFlagsUnusedNames: on the fixture, the audit names every
// exported declaration only a test or its own body names (a func, a method,
// a var, a recursive func), and nothing main names, the Kept row keeps,
// unexported or under testdata/.
func TestLibrarySurfaceFlagsUnusedNames(t *testing.T) {
	unused, _, n := auditSurface(t, writeSurfaceFixture(t))
	want := []string{"lib.Dead", "lib.Self", "lib.T.Orphan", "lib.Unused"}
	if !slices.Equal(unused, want) {
		t.Errorf("unused %v, want %v", unused, want)
	}
	if n != 8 {
		t.Errorf("%d declarations in scope, want lib's 8 exported ones", n)
	}
}

// TestLibrarySurfaceFlagsStaleKeptRow: on the fixture, a Kept row that names
// no declaration is reported, and a Deleted row is not read.
func TestLibrarySurfaceFlagsStaleKeptRow(t *testing.T) {
	root := writeSurfaceFixture(t)
	if _, stale, _ := auditSurface(t, root); !slices.Equal(stale, []string{"lib.Gone"}) {
		t.Errorf("stale rows %v, want [lib.Gone]", stale)
	}
	if kept := surfaceRows(t, root); len(kept) != 2 || kept["lib.Old"] {
		t.Errorf("Kept rows %v, want lib.Kept and lib.Gone", kept)
	}
}
