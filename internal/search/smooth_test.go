package search

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/bio"
	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/phylotree"
	"raxmlcell/internal/phylotree/treegen"
	"raxmlcell/internal/seqsim"
)

// TestSmoothingPassesNeverLowerLogL: on phylo2vec trees of 4 to 40 taxa over
// random columns — bases, ambiguity codes and gaps, random weights — from
// random branch lengths, on both backends, no smoothing pass ends below the
// log-likelihood it started from, and each pass returns the tree's
// log-likelihood at the lengths it leaves.
func TestSmoothingPassesNeverLowerLogL(t *testing.T) {
	const codes = "ACGTACGTACGTACGTRYKMN-"
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(2950 + trial)))
		nt, sites := 4+rng.Intn(37), 120+rng.Intn(400)
		names := make([]string, nt)
		seqs := make([]*bio.Sequence, nt)
		for i := range seqs {
			names[i] = fmt.Sprintf("t%02d", i)
			row := make([]byte, sites)
			if i > 0 && rng.Intn(5) == 0 {
				row = []byte(seqs[rng.Intn(i)].String())
			} else {
				for j := range row {
					row[j] = codes[rng.Intn(len(codes))]
				}
			}
			var err error
			if seqs[i], err = bio.NewSequence(names[i], string(row)); err != nil {
				t.Fatal(err)
			}
		}
		a, err := alignment.New(seqs)
		if err != nil {
			t.Fatal(err)
		}
		pat := alignment.Compress(a)
		weights := make([]int, pat.NumPatterns())
		for k := range weights {
			weights[k] = 1 + rng.Intn(3)
		}
		pat, _ = pat.WithWeights(weights)
		tr := treegen.Phylo2Vec(names, rng)
		for _, e := range tr.Edges() {
			e.SetZ([]float64{phylotree.MinBranchLength, 0.001, 0.05, 0.3, 2}[rng.Intn(5)])
		}
		for _, backend := range likelihood.Backends() {
			eng, err := likelihood.NewEngine(pat, seqsim.DefaultModel(), likelihood.Config{Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			tr := tr.Clone()
			eng.AttachTree(tr)
			before, err := eng.Evaluate(tr.Tips[0])
			if err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 4; pass++ {
				ll, err := SmoothBranches(eng, tr, 1, 0.01)
				if err != nil {
					t.Fatal(err)
				}
				at, err := eng.Evaluate(tr.Tips[0])
				if err != nil {
					t.Fatal(err)
				}
				if ll < before-1e-9*math.Abs(before) || math.Abs(at-ll) > 1e-9*math.Abs(at) {
					t.Errorf("trial %d (%s, %d taxa) pass %d: logL %.10f -> %.10f, tree evaluates to %.10f", trial, backend, nt, pass, before, ll, at)
				}
				before = ll
			}
		}
	}
}
