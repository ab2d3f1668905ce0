package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/token"
	"os"
	"sort"

	"raxmlcell/internal/lint"
)

// vetConfig mirrors the JSON config the go command writes for each package
// when driving a vet tool (cmd/go/internal/work.vetConfig).
type vetConfig struct {
	ID           string
	Compiler     string
	Dir          string
	ImportPath   string
	GoFiles      []string
	NonGoFiles   []string
	IgnoredFiles []string

	ModulePath    string
	ModuleVersion string
	ImportMap     map[string]string
	PackageFile   map[string]string
	Standard      map[string]bool
	PackageVetx   map[string]string
	VetxOnly      bool
	VetxOutput    string
	GoVersion     string

	SucceedOnTypecheckFailure bool
}

// moduleLocal reports whether the package under analysis belongs to the
// module being vetted. Only module-local packages get the (comparatively
// expensive) source parse + typecheck on dependency passes: the
// interprocedural analyzers recognize standard-library nondeterminism
// directly at call sites, so no facts need to be mined from GOROOT.
func (cfg *vetConfig) moduleLocal() bool {
	return cfg.ModulePath != "" && !cfg.Standard[cfg.ImportPath]
}

// writeVetx persists the package's exported facts (nil = none) to the
// path the go command designated. The go command threads the file into
// dependent packages' PackageVetx maps and caches it under the vet tool's
// buildID, so a rebuilt raxmlvet re-mines facts automatically.
func writeVetx(cfg *vetConfig, facts *lint.FactSet) error {
	if cfg.VetxOutput == "" {
		return nil
	}
	if facts == nil {
		facts = lint.NewFactSet()
	}
	return os.WriteFile(cfg.VetxOutput, facts.Encode(), 0o666)
}

// readDepFacts merges the fact files of every dependency the go command
// handed us. Unreadable or unrecognized files (e.g. written by a
// pre-fact raxmlvet before the cache key rolled) degrade to no facts
// rather than failing the build.
func readDepFacts(cfg *vetConfig) *lint.FactSet {
	facts := lint.NewFactSet()
	paths := make([]string, 0, len(cfg.PackageVetx))
	for p := range cfg.PackageVetx {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		data, err := os.ReadFile(cfg.PackageVetx[p])
		if err != nil {
			continue
		}
		fs, err := lint.DecodeFacts(bytes.NewReader(data))
		if err != nil {
			continue
		}
		facts.Merge(fs)
	}
	return facts
}

// unitcheck analyzes the single package described by cfgFile and returns
// the process exit code: 0 clean, 1 tool/typecheck error, 2 findings.
// Dependency passes (VetxOnly) run only the fact-producing analyzers and
// report nothing; target passes run the full suite plus the
// unused-suppression audit.
func unitcheck(cfgFile string) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "raxmlvet:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "raxmlvet: parsing %s: %v\n", cfgFile, err)
		return 1
	}

	// Fast path: a dependency outside the module carries no project
	// facts, so skip the typecheck and publish an empty fact file.
	if cfg.VetxOnly && !cfg.moduleLocal() {
		if err := writeVetx(&cfg, nil); err != nil {
			fmt.Fprintln(os.Stderr, "raxmlvet:", err)
			return 1
		}
		return 0
	}

	emptyOut := func(code int) int {
		if err := writeVetx(&cfg, nil); err != nil {
			fmt.Fprintln(os.Stderr, "raxmlvet:", err)
			return 1
		}
		return code
	}

	fset := token.NewFileSet()
	files, err := lint.ParseFiles(fset, cfg.GoFiles)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return emptyOut(0)
		}
		fmt.Fprintln(os.Stderr, "raxmlvet:", err)
		return 1
	}
	imp := lint.ExportDataImporter(fset, cfg.ImportMap, func(path string) (string, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return "", fmt.Errorf("no export data for %q", path)
		}
		return file, nil
	})
	pkg, err := lint.TypeCheck(fset, cfg.ImportPath, cfg.GoVersion, files, imp)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return emptyOut(0)
		}
		fmt.Fprintln(os.Stderr, "raxmlvet:", err)
		return 1
	}
	pkg.Imported = readDepFacts(&cfg)
	pkg.FactsOnly = cfg.VetxOnly

	diags := lint.RunWithAudit(pkg)
	if err := writeVetx(&cfg, pkg.Exported); err != nil {
		fmt.Fprintln(os.Stderr, "raxmlvet:", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
