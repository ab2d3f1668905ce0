package raxmlcell

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// goTestRun matches a go test command line with a -run pattern: its flags
// before the pattern, the pattern, and the rest of the line.
var goTestRun = regexp.MustCompile(`(?m)(?:\bgo|\$\(GO\)) test([^'\n]*)-run '([^']+)'([^\n]*)$`)

// runPatterns maps each go test -run line of text, keyed by whether it runs
// under the race detector and by its package pattern, to the sorted names in
// its pattern.
func runPatterns(t *testing.T, text string) map[string][]string {
	t.Helper()
	out := map[string][]string{}
	for _, m := range goTestRun.FindAllStringSubmatch(text, -1) {
		flags := m[1] + m[3]
		fields := strings.Fields(m[3])
		if len(fields) == 0 {
			t.Fatalf("go test line without a package: %q", m[0])
		}
		key := fields[len(fields)-1]
		if strings.Contains(flags, "-race") {
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

// TestBackendGateMirrorsCI: `make backend-gate` is the local mirror of CI's
// backend-gate job, so for every package and race mode the go test -run
// patterns of the two name the same tests.
func TestBackendGateMirrorsCI(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	local := runPatterns(t, section(t, string(mk), "backend-gate:", regexp.MustCompile(`(?m)^\S`)))
	job := runPatterns(t, section(t, string(ci), "  backend-gate:", regexp.MustCompile(`(?m)^  \S`)))
	if len(local) == 0 {
		t.Fatal("make backend-gate runs no go test -run line")
	}
	for key, names := range local {
		if !slices.Equal(names, job[key]) {
			t.Errorf("go test %s: make backend-gate runs\n  %s\nCI's backend-gate job\n  %s", key, strings.Join(names, "|"), strings.Join(job[key], "|"))
		}
	}
	for key, names := range job {
		if _, ok := local[key]; !ok {
			t.Errorf("go test %s: CI's backend-gate job runs %s, make backend-gate nothing", key, strings.Join(names, "|"))
		}
	}
}
