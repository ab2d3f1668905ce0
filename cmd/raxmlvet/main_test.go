package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"raxmlcell/internal/lint"
)

// TestRegistersAllAnalyzers pins the analyzer set: dropping one from the
// registry would silently weaken CI, so the exact names are asserted.
func TestRegistersAllAnalyzers(t *testing.T) {
	want := []string{
		"simdeterminism", "floatcmp", "ctxownership", "backendpurity",
	}
	all := lint.All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d analyzers, want %d", len(all), len(want))
	}
	for i, a := range all {
		if a.Name != want[i] {
			t.Errorf("analyzer %d is %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no Doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %q has no Run", a.Name)
		}
	}
}

// buildRaxmlvet compiles the command under test into a temp dir.
func buildRaxmlvet(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "raxmlvet")
	cmd := exec.Command("go", "build", "-o", bin, "raxmlcell/cmd/raxmlvet")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building raxmlvet: %v\n%s", err, out)
	}
	return bin
}

// writeProbeModule lays out a throwaway module whose internal/sim package
// contains a deliberate time.Now() — the acceptance probe for the lint job.
func writeProbeModule(t *testing.T, dir string, violate bool) {
	t.Helper()
	body := `package sim

func Tick() int64 { return 0 }
`
	if violate {
		body = `package sim

import "time"

func Tick() int64 { return time.Now().UnixNano() }
`
	}
	files := map[string]string{
		"go.mod":              "module lintprobe\n\ngo 1.24\n",
		"internal/sim/sim.go": body,
	}
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestVettoolProtocol drives the binary exactly as CI does:
// go vet -vettool=raxmlvet must fail on a deliberate time.Now() inside
// internal/sim and pass once it is removed.
func TestVettoolProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and invokes the go toolchain")
	}
	bin := buildRaxmlvet(t)

	t.Run("violation fails", func(t *testing.T) {
		dir := t.TempDir()
		writeProbeModule(t, dir, true)
		cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("go vet passed on a time.Now() violation\n%s", out)
		}
		if !strings.Contains(string(out), "simdeterminism") {
			t.Fatalf("failure not attributed to simdeterminism:\n%s", out)
		}
	})

	t.Run("clean passes", func(t *testing.T) {
		dir := t.TempDir()
		writeProbeModule(t, dir, false)
		cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go vet failed on a clean module: %v\n%s", err, out)
		}
	})
}

// writeLaunderModule lays out a module where the nondeterminism is
// laundered across a package boundary: internal/util wraps time.Now()
// behind two helpers, internal/sim calls the outer one. Only the
// cross-package facts pass can connect the call to the clock, so the
// test below proves the facts round-trip end-to-end through .vetx files.
func writeLaunderModule(t *testing.T, dir string) {
	t.Helper()
	files := map[string]string{
		"go.mod": "module lintprobe\n\ngo 1.24\n",
		"internal/util/util.go": `package util

import "time"

func Stamp() int64 { return stamp() }

func stamp() int64 { return time.Now().UnixNano() }
`,
		"internal/sim/sim.go": `package sim

import "lintprobe/internal/util"

func Tick() int64 { return util.Stamp() }
`,
	}
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestVettoolFactsRoundTrip drives go vet -vettool over the laundering
// module: the util package's facts travel through its .vetx file into
// the sim package's invocation, where the frontier call is flagged.
func TestVettoolFactsRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and invokes the go toolchain")
	}
	bin := buildRaxmlvet(t)
	dir := t.TempDir()
	writeLaunderModule(t, dir)
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet passed on cross-package laundered time.Now\n%s", out)
	}
	s := string(out)
	if !strings.Contains(s, "(simdeterminism)") {
		t.Fatalf("failure not attributed to simdeterminism:\n%s", s)
	}
	if !strings.Contains(s, "call to util.Stamp") || !strings.Contains(s, "calls util.stamp, which reads the wall clock via time.Now") {
		t.Fatalf("missing interprocedural witness chain:\n%s", s)
	}
}

// TestUnusedSuppressionAudit checks the end-to-end audit: under
// go vet -vettool, a directive that suppresses nothing is itself a finding.
func TestUnusedSuppressionAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and invokes the go toolchain")
	}
	bin := buildRaxmlvet(t)
	dir := t.TempDir()
	writeProbeModule(t, dir, false)
	stale := `package sim

// The directive below covers a line with no finding: stale.
//lint:ignore simdeterminism pretends to guard a wall-clock read
func Quiet() int64 { return 1 }
`
	if err := os.WriteFile(filepath.Join(dir, "internal", "sim", "stale.go"), []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet passed on a stale directive\n%s", out)
	}
	s := string(out)
	if !strings.Contains(s, "stale.go:4:1: //lint:ignore simdeterminism directive suppresses nothing") ||
		!strings.Contains(s, "(unusedsuppression)") {
		t.Fatalf("stale directive not reported:\n%s", s)
	}
}

// TestSuppressionOfUnknownAnalyzer checks the audit of directives that
// name no analyzer of the suite — a retired one or a typo: under go vet
// -vettool such a directive is a finding whether or not it suppressed
// anything, while one naming only analyzers of the suite that suppresses a
// finding is not.
func TestSuppressionOfUnknownAnalyzer(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and invokes the go toolchain")
	}
	bin := buildRaxmlvet(t)
	dir := t.TempDir()
	writeProbeModule(t, dir, false)
	src := `package sim

//lint:ignore hotpathalloc the analyzer this named is gone
func Retired() int64 { return 1 }

func Same(a, b float64) bool {
	//lint:ignore floatcmp,nondettaint exact replay comparison
	return a == b
}

func Exact(a, b float64) bool {
	//lint:ignore floatcmp exact replay comparison
	return a == b
}
`
	if err := os.WriteFile(filepath.Join(dir, "internal", "sim", "directives.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet passed on directives naming retired analyzers\n%s", out)
	}
	s := string(out)
	for _, want := range []string{
		"directives.go:3:1: //lint:ignore hotpathalloc directive names hotpathalloc, which is no analyzer of the suite",
		"directives.go:7:2: //lint:ignore floatcmp,nondettaint directive names nondettaint, which is no analyzer of the suite",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
	if n := strings.Count(s, "(unusedsuppression)"); n != 2 {
		t.Errorf("%d unusedsuppression findings, want 2:\n%s", n, s)
	}
	if strings.Contains(s, "(floatcmp)") {
		t.Errorf("a suppressed floatcmp finding surfaced:\n%s", s)
	}
}

// TestUsageWithoutConfig checks that raxmlvet has no driver of its own: run
// without the go command's vet.cfg, it prints usage and exits with status 2.
func TestUsageWithoutConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildRaxmlvet(t)
	for _, c := range []struct {
		name string
		args []string
	}{
		{"no-arguments", nil},
		{"package-pattern", []string{"./..."}},
		{"json-flag", []string{"-json", "./..."}},
	} {
		t.Run(c.name, func(t *testing.T) {
			out, err := exec.Command(bin, c.args...).CombinedOutput()
			if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
				t.Fatalf("raxmlvet %q: want exit status 2, got %v\n%s", c.args, err, out)
			}
			if !strings.Contains(string(out), "usage: go vet -vettool=") {
				t.Fatalf("raxmlvet %q: no usage line:\n%s", c.args, out)
			}
		})
	}
}

// findingLine is the line format CI turns into annotations:
// "file:line:col: message (analyzer)", the file relative to the module
// root and prefixed "./" by the go command.
var findingLine = regexp.MustCompile(`^(\./)?([^:]+\.go):([0-9]+):([0-9]+): (.*) \(([a-z]+)\)$`)

// TestVettoolFindingLines checks the findings feed CI annotates: under
// go vet -vettool, every finding of a package is one line in the format
// above, with the module-relative file, line, column and analyzer, and the
// findings come out in file, then line order.
// The probe is a command package, so floatcmp is also shown to reach
// ./cmd/... through vet.
func TestVettoolFindingLines(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and invokes the go toolchain")
	}
	bin := buildRaxmlvet(t)
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module lintprobe\n\ngo 1.24\n",
		"cmd/tool/b.go": `package main

func same(a, b float64) bool { return a == b }
`,
		"cmd/tool/a.go": `package main

func main() { _ = differ(1, 2) }

func differ(x, y float64) bool {
	return x != y || same(x, y)
}
`,
	}
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet passed on two float comparisons\n%s", out)
	}
	type finding struct {
		file      string
		line, col string
		analyzer  string
	}
	var got []finding
	for _, l := range strings.Split(string(out), "\n") {
		if m := findingLine.FindStringSubmatch(l); m != nil {
			if !strings.HasPrefix(m[5], "floating-point ") {
				t.Errorf("unexpected message %q", m[5])
			}
			got = append(got, finding{m[2], m[3], m[4], m[6]})
		}
	}
	want := []finding{
		{filepath.Join("cmd", "tool", "a.go"), "6", "9", "floatcmp"},
		{filepath.Join("cmd", "tool", "b.go"), "3", "39", "floatcmp"},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d finding lines, want %d:\n%s", len(got), len(want), out)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("finding %d = %+v, want %+v\n%s", i, got[i], want[i], out)
		}
	}
}

// TestVersionQuery checks the -V=full handshake the go command uses for
// build caching: "<name> version devel buildID=<hash>".
func TestVersionQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildRaxmlvet(t)
	out, err := exec.Command(bin, "-V=full").Output()
	if err != nil {
		t.Fatal(err)
	}
	f := strings.Fields(string(out))
	if len(f) < 4 || f[0] != "raxmlvet" || f[1] != "version" || f[2] != "devel" ||
		!strings.HasPrefix(f[len(f)-1], "buildID=") {
		t.Fatalf("malformed -V=full output: %q", out)
	}
}
