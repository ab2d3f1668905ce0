// Command raxmlvet is the project's static-analysis suite (see
// internal/lint): four analyzers, each checking an invariant no test sees —
// simulator determinism, at use sites and through calls into other
// packages (simdeterminism), tolerance-based float comparison (floatcmp),
// engine publication only through the range executor (ctxownership) and
// backend kernel purity (backendpurity). Every run also audits //lint:ignore
// directives and reports the ones that no longer suppress anything or that
// name no analyzer of the suite (unusedsuppression).
//
// It has one driver, the go command:
//
//	go vet -vettool=$(which raxmlvet) ./...
//
// The go command drives raxmlvet through the vet tool protocol: a -V=full
// version query for build caching, then one invocation per package with a
// JSON config file argument; cross-package analysis facts travel through
// the .vetx files of the same protocol. Findings are printed to stderr as
// "file:line:col: message (analyzer)", and the exit status is non-zero
// when any finding is reported. Run without a config file, raxmlvet prints
// this usage and exits with status 2.
package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() {
	args := os.Args[1:]

	// Vet tool protocol, part 1: version/buildID query used by the go
	// command as a cache key. The content hash of the binary itself keys
	// the cache, so rebuilding raxmlvet with changed analyzers correctly
	// invalidates prior vet results.
	for _, a := range args {
		if a == "-V=full" || a == "--V=full" {
			fmt.Printf("raxmlvet version devel buildID=%s\n", selfHash())
			return
		}
		if a == "-V" || a == "--V" {
			fmt.Println("raxmlvet version devel")
			return
		}
	}

	// Vet tool protocol, part 2: flag discovery. We expose no analyzer
	// flags, so the go command passes none through.
	for _, a := range args {
		if a == "-flags" || a == "--flags" {
			fmt.Println("[]")
			return
		}
	}

	// Vet tool protocol, part 3: one *.cfg argument per package.
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(unitcheck(args[0]))
	}

	fmt.Fprintln(os.Stderr, "usage: go vet -vettool=$(which raxmlvet) [packages]")
	os.Exit(2)
}

// selfHash returns a short content hash of the running binary.
func selfHash() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}
