package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/core"
	"raxmlcell/internal/phylotree"
)

// TestPinned42SC runs `raxml -in 42sc.phy -inferences 1 -bootstraps 2
// -workers 2 -seed 7` in-process and holds its stdout to the bytes in
// testdata/42sc-seed7.stdout: the best logL and alpha, the bootstrap support
// line, the whole kernel profile line (every call count, flop and byte) and
// the best tree. A change that is to leave every bit and count alone leaves
// this file alone; one that moves them rewrites it and says why.
func TestPinned42SC(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "42sc-seed7.stdout"))
	if err != nil {
		t.Fatal(err)
	}
	got := runRaxml(t, "-in", fixture42SC, "-inferences", "1", "-bootstraps", "2", "-workers", "2", "-seed", "7")
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gl), len(wl)) {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("stdout line %d:\n got %s\nwant %s", i+1, g, w)
		}
	}
}

// fixture42SC is the 42-taxon alignment the CLI tests run on.
var fixture42SC = filepath.Join("..", "..", "internal", "core", "testdata", "42sc.phy")

// runRaxml runs main in-process with the given arguments and returns what it
// wrote to stdout.
func runRaxml(t *testing.T, arg ...string) []byte {
	t.Helper()
	dir := t.TempDir()
	stdout, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	stderr, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	args, out, errOut, flags := os.Args, os.Stdout, os.Stderr, flag.CommandLine
	defer func() { os.Args, os.Stdout, os.Stderr, flag.CommandLine = args, out, errOut, flags }()
	flag.CommandLine = flag.NewFlagSet("raxml", flag.ExitOnError) // main defines its flags anew each run
	os.Args = append([]string{"raxml"}, arg...)
	os.Stdout, os.Stderr = stdout, stderr
	main()
	stdout.Close()
	stderr.Close()
	got, err := os.ReadFile(stdout.Name())
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestTreesOut42SC runs raxml on 42_SC with -trees-out and checks the NEXUS
// file: the header and block, one TREE line for the best tree, the tree -out
// wrote, and one per successful job, each the tree that job found in the same
// campaign run through the library.
func TestTreesOut42SC(t *testing.T) {
	dir := t.TempDir()
	nexus, best := filepath.Join(dir, "trees.nex"), filepath.Join(dir, "best.nwk")
	runRaxml(t, "-in", fixture42SC, "-inferences", "1", "-bootstraps", "2", "-workers", "2", "-seed", "7",
		"-quiet", "-trees-out", nexus, "-out", best)

	f, err := os.Open(fixture42SC)
	if err != nil {
		t.Fatal(err)
	}
	a, err := alignment.ReadPhylip(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	pat := alignment.Compress(a)
	cfg := core.DefaultConfig()
	cfg.Inferences, cfg.Bootstraps, cfg.Workers, cfg.Seed = 1, 2, 2, 7
	analysis, err := core.Analyze(pat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bestNewick, err := os.ReadFile(best)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"best": strings.TrimSpace(string(bestNewick))}
	for _, r := range analysis.Results {
		if r.Err == nil {
			want[fmt.Sprintf("%v_%d", r.Job.Kind, r.Job.Index)] = r.Newick
		}
	}
	if len(want) != 4 {
		t.Fatalf("%d trees to expect, want the best and three jobs'", len(want))
	}

	raw, err := os.ReadFile(nexus)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 2 || lines[0] != "#NEXUS" || lines[1] != "BEGIN TREES;" || lines[len(lines)-1] != "END;" {
		t.Fatalf("not a NEXUS trees block:\n%s", raw)
	}
	seen := map[string]bool{}
	for _, line := range lines[2 : len(lines)-1] {
		name, newick, ok := strings.Cut(strings.TrimPrefix(strings.TrimSpace(line), "TREE "), " = ")
		if !ok {
			t.Fatalf("not a TREE line: %q", line)
		}
		if seen[name] {
			t.Errorf("tree %s written twice", name)
		}
		seen[name] = true
		ref, ok := want[name]
		if !ok {
			t.Errorf("unexpected tree %s", name)
			continue
		}
		got, err := phylotree.ParseNewick(newick)
		if err != nil {
			t.Fatalf("tree %s: %v", name, err)
		}
		wantTree, err := phylotree.ParseNewick(ref)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.AlignTaxa(wantTree.Taxa); err != nil {
			t.Fatalf("tree %s: %v", name, err)
		}
		if d, err := phylotree.RobinsonFoulds(wantTree, got); err != nil || d != 0 {
			t.Errorf("tree %s at RF %d from the expected tree (%v)", name, d, err)
		}
	}
	if len(seen) != len(want) {
		t.Errorf("%d TREE lines, want %d", len(seen), len(want))
	}
}
