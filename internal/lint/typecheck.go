package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
)

// ParseFiles parses the given Go source files with comments (required for
// //lint:ignore directives) into the file set.
func ParseFiles(fset *token.FileSet, filenames []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// TypeCheck type-checks the parsed files as the package at importPath,
// resolving imports through imp, and returns a Package ready for Run.
// goVersion may be empty (language version of the toolchain).
func TypeCheck(fset *token.FileSet, importPath, goVersion string, files []*ast.File, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	var firstErr error
	conf := types.Config{
		Importer:  imp,
		GoVersion: goVersion,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	pkg, err := conf.Check(importPath, fset, files, info)
	if firstErr != nil {
		err = firstErr
	}
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", importPath, err)
	}
	return &Package{Fset: fset, Path: importPath, Pkg: pkg, Info: info, Files: files}, nil
}

// ExportDataImporter builds a types.Importer that resolves source-level
// import paths through importMap and reads the gc export data that
// exportFile locates — for the vet driver, the PackageFile map of the
// go command's vet.cfg.
func ExportDataImporter(fset *token.FileSet, importMap map[string]string, exportFile func(path string) (string, error)) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		file, err := exportFile(path)
		if err != nil {
			return nil, err
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}
