// Command seqgen generates synthetic DNA alignments by simulating sequence
// evolution along a random tree under a GTR+Γ model — the stand-in for the
// paper's 42_SC benchmark input (42 taxa x 1167 nucleotides, ~250 distinct
// site patterns).
//
// Usage:
//
//	seqgen -taxa 42 -sites 1167 -seed 1 -out 42sc.phy -tree-out 42sc.nwk
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/seqsim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("seqgen: ")

	var (
		taxa      = flag.Int("taxa", 42, "number of taxa")
		sites     = flag.Int("sites", 1167, "alignment length")
		seed      = flag.Int64("seed", 1, "random seed")
		mb        = flag.Float64("mean-branch", 0.02, "mean branch length (substitutions/site)")
		alpha     = flag.Float64("alpha", 0.8, "Gamma shape for rate heterogeneity")
		invariant = flag.Float64("invariant", 0.60, "fraction of invariant sites")
		gaps      = flag.Float64("gaps", 0, "fraction of characters replaced by gaps")
		format    = flag.String("format", "phylip", "output format: phylip or fasta")
		out       = flag.String("out", "", "alignment output file (default stdout)")
		treeOut   = flag.String("tree-out", "", "write the true tree (Newick) to this file")
	)
	flag.Parse()

	params := seqsim.Params{
		Taxa: *taxa, Sites: *sites, MeanBranch: *mb, Alpha: *alpha,
		GapFraction: *gaps, InvariantFraction: *invariant,
	}
	if err := generate(params, *seed, *format, *out, *treeOut); err != nil {
		log.Fatal(err)
	}
}

// generate simulates one alignment and writes it, and its true tree when
// treeOut is set; out "" is standard output. Each file's Close is checked as
// well as its writes, so a full disk is an error, not a truncated file.
func generate(params seqsim.Params, seed int64, format, out, treeOut string) error {
	var write func(io.Writer, *alignment.Alignment) error
	switch format {
	case "phylip":
		write = alignment.WritePhylip
	case "fasta":
		write = alignment.WriteFasta
	default:
		return fmt.Errorf("unknown format %q", format)
	}
	a, tree, err := seqsim.Generate(params, seqsim.DefaultModel(), rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}
	if out == "" {
		err = write(os.Stdout, a)
	} else {
		err = writeFile(out, func(w io.Writer) error { return write(w, a) })
	}
	if err != nil {
		return err
	}
	if treeOut != "" { // os.WriteFile reports the Close's error too
		if err := os.WriteFile(treeOut, []byte(tree.Newick()+"\n"), 0o644); err != nil {
			return err
		}
	}
	pat := alignment.Compress(a)
	fmt.Fprintf(os.Stderr, "seqgen: %d taxa x %d sites, %d distinct patterns\n",
		a.NumTaxa(), a.NumSites(), pat.NumPatterns())
	return nil
}

// writeFile creates path and writes it, returning the first error of the
// write and the Close.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close() // the write's error is the one to report
		return err
	}
	return f.Close()
}
