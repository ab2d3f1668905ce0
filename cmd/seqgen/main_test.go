package main

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/seqsim"
)

// TestGenerateWritesFiles checks that the files seqgen writes hold the
// library's alignment and tree, byte for byte.
func TestGenerateWritesFiles(t *testing.T) {
	dir := t.TempDir()
	p := seqsim.Params{Taxa: 6, Sites: 50, MeanBranch: 0.1, InvariantFraction: 0.3}
	out, treeOut := filepath.Join(dir, "a.phy"), filepath.Join(dir, "a.nwk")
	if err := generate(p, 7, "phylip", out, treeOut); err != nil {
		t.Fatal(err)
	}
	a, tree, err := seqsim.Generate(p, seqsim.DefaultModel(), rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := alignment.WritePhylip(&want, a); err != nil {
		t.Fatal(err)
	}
	for path, w := range map[string]string{out: want.String(), treeOut: tree.Newick() + "\n"} {
		if got, err := os.ReadFile(path); err != nil || string(got) != w {
			t.Errorf("%s: %q, %v; want %q", path, got, err, w)
		}
	}
}

// TestGenerateReportsWriteErrors: a device that is full, or a format seqgen
// does not write, is an error (and so a non-zero exit), and an unknown
// format creates no file.
func TestGenerateReportsWriteErrors(t *testing.T) {
	p := seqsim.Params{Taxa: 6, Sites: 50}
	if _, err := os.Stat("/dev/full"); err == nil {
		if err := generate(p, 1, "phylip", "/dev/full", ""); err == nil {
			t.Error("an alignment written to a full device reported no error")
		}
		if err := generate(p, 1, "phylip", filepath.Join(t.TempDir(), "a.phy"), "/dev/full"); err == nil {
			t.Error("a tree written to a full device reported no error")
		}
	}
	out := filepath.Join(t.TempDir(), "a.phy")
	if err := generate(p, 1, "nexus", out, ""); err == nil {
		t.Error("an unknown format was accepted")
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("an unknown format left a file: %v", err)
	}
}
