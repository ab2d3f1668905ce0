package likelihood

import (
	"math"
	"math/rand"
	"testing"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/model"
	"raxmlcell/internal/phylotree"
	"raxmlcell/internal/phylotree/treegen"
)

// evaluateOn is the log-likelihood of tr over pat, across the pendant branch
// of the taxon named at.
func evaluateOn(t *testing.T, pat *alignment.Patterns, m *model.Model, backend string, tr *phylotree.Tree, at string) float64 {
	t.Helper()
	e, err := NewEngine(pat, m, Config{Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	for _, tip := range tr.Tips {
		if tip.Name == at {
			ll, err := e.Evaluate(tip)
			if err != nil {
				t.Fatal(err)
			}
			return ll
		}
	}
	t.Fatalf("taxon %q not in the tree", at)
	return 0
}

// withColumns returns pat with its columns (rows of Data, weights) taken in
// the order cols gives; a pattern may be taken more than once.
func withColumns(pat *alignment.Patterns, cols []int, weights []int) *alignment.Patterns {
	q := *pat
	q.Data = make([][]byte, len(pat.Data))
	for i, row := range pat.Data {
		q.Data[i] = make([]byte, len(cols))
		for j, k := range cols {
			q.Data[i][j] = row[k]
		}
	}
	q.Weights = weights
	return &q
}

// TestLikelihoodProperties checks, on phylo2vec trees over random columns —
// bases, ambiguity codes, gaps, invariant and all-gap columns, duplicated
// sequences — with random weights, on one and on several pattern blocks and
// on both backends, what the log-likelihood must satisfy on any input: it
// does not depend on the taxa's row order or the patterns' order (1e-12
// relative), doubling every weight doubles it bit for bit, the compressed
// patterns give what one pattern per column gives (1e-12 relative), and a
// bootstrap replicate's Drawn() gives the replicate's — bit for bit on one
// block, 1e-12 relative on more.
func TestLikelihoodProperties(t *testing.T) {
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Abs(b) }
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(2910 + trial)))
		nt := 4 + rng.Intn(27)
		pat := repeatPatterns(t, rng, nt, []int{200, 1500}[trial%2])
		weights := make([]int, pat.NumPatterns())
		for k := range weights {
			weights[k] = 1 + rng.Intn(4)
		}
		pat, _ = pat.WithWeights(weights)
		m := randomModel(t, rng, []int{1, 4}[trial/2%2])
		tr := treegen.Phylo2Vec(pat.Names, rng)
		for _, e := range tr.Edges() {
			e.SetZ(0.01 + 0.4*rng.Float64())
		}
		at := pat.Names[rng.Intn(nt)]
		npat := pat.NumPatterns()
		oneBlock := npat <= rangeBlock

		relabelled := *pat
		relabelled.Names, relabelled.Data = make([]string, nt), make([][]byte, nt)
		for i, k := range rng.Perm(nt) {
			relabelled.Names[i], relabelled.Data[i] = pat.Names[k], pat.Data[k]
		}
		relabelledTree := tr.Clone()
		if err := relabelledTree.AlignTaxa(relabelled.Names); err != nil {
			t.Fatal(err)
		}

		perm := rng.Perm(npat)
		permWeights := make([]int, npat)
		doubled := make([]int, npat)
		var cols []int
		for j, k := range perm {
			permWeights[j] = weights[k]
			doubled[k] = 2 * weights[k]
			for c := 0; c < weights[k]; c++ {
				cols = append(cols, k)
			}
		}
		permuted := withColumns(pat, perm, permWeights)
		twice, _ := pat.WithWeights(doubled)
		uncompressed := withColumns(pat, cols, nil)
		uncompressed.Weights = make([]int, len(cols))
		for j := range uncompressed.Weights {
			uncompressed.Weights[j] = 1
		}
		rep := alignment.BootstrapReplicate(pat, rng)
		drawn := rep.Drawn()

		for _, backend := range Backends() {
			ll := evaluateOn(t, pat, m, backend, tr, at)
			if got := evaluateOn(t, &relabelled, m, backend, relabelledTree, at); !near(got, ll) {
				t.Errorf("trial %d (%s): taxa relabelled %.15g, original %.15g", trial, backend, got, ll)
			}
			if got := evaluateOn(t, permuted, m, backend, tr, at); !near(got, ll) {
				t.Errorf("trial %d (%s): patterns permuted %.15g, original %.15g", trial, backend, got, ll)
			}
			if got := evaluateOn(t, twice, m, backend, tr, at); got != 2*ll {
				t.Errorf("trial %d (%s): doubled weights give %.17g, want exactly 2 x %.17g", trial, backend, got, ll)
			}
			if got := evaluateOn(t, uncompressed, m, backend, tr, at); !near(got, ll) {
				t.Errorf("trial %d (%s): %d uncompressed columns give %.15g, %d patterns %.15g", trial, backend, len(cols), got, npat, ll)
			}
			llRep, llDrawn := evaluateOn(t, rep, m, backend, tr, at), evaluateOn(t, drawn, m, backend, tr, at)
			if llDrawn != llRep && (oneBlock || !near(llDrawn, llRep)) {
				t.Errorf("trial %d (%s, %d patterns): Drawn() gives %.17g, its replicate %.17g", trial, backend, npat, llDrawn, llRep)
			}
		}
	}
}
