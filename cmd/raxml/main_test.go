package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
	os.Args = []string{"raxml", "-in", filepath.Join("..", "..", "internal", "core", "testdata", "42sc.phy"),
		"-inferences", "1", "-bootstraps", "2", "-workers", "2", "-seed", "7"}
	os.Stdout, os.Stderr = stdout, stderr
	main()
	stdout.Close()
	stderr.Close()
	got, err := os.ReadFile(stdout.Name())
	if err != nil {
		t.Fatal(err)
	}
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
