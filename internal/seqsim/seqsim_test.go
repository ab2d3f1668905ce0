package seqsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/phylotree"
)

func TestGenerateDimensions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := Params{Taxa: 10, Sites: 200, MeanBranch: 0.1, Alpha: 1}
	a, tr, err := Generate(p, DefaultModel(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumTaxa() != 10 || a.NumSites() != 200 {
		t.Fatalf("got %dx%d", a.NumTaxa(), a.NumSites())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.NumTips() != 10 {
		t.Fatalf("tree tips = %d", tr.NumTips())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Params{Taxa: 8, Sites: 100, MeanBranch: 0.1}
	m := DefaultModel()
	a1, t1, err := Generate(p, m, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	a2, t2, err := Generate(p, m, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if t1.Newick() != t2.Newick() {
		t.Error("trees differ under same seed")
	}
	for i := range a1.Seqs {
		if a1.Seqs[i].String() != a2.Seqs[i].String() {
			t.Fatalf("sequence %d differs under same seed", i)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := DefaultModel()
	if _, _, err := Generate(Params{Taxa: 2, Sites: 10}, m, rng); err == nil {
		t.Error("2 taxa accepted")
	}
	if _, _, err := Generate(Params{Taxa: 5, Sites: 0}, m, rng); err == nil {
		t.Error("0 sites accepted")
	}
	// Evolve, which callers may reach without Generate, returns the same
	// errors.
	_, tr, err := Generate(Params{Taxa: 5, Sites: 1}, m, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, sites := range []int{0, -3} {
		if _, err := Evolve(tr, m, Params{Sites: sites}, rng); err == nil || err.Error() != fmt.Sprintf("seqsim: need > 0 sites, got %d", sites) {
			t.Errorf("Evolve on %d sites: %v", sites, err)
		}
	}
	two := &phylotree.Tree{Taxa: []string{"a", "b"}, Tips: make([]*phylotree.Node, 2)}
	if _, err := Evolve(two, m, Params{Sites: 10}, rng); err == nil || err.Error() != "seqsim: need >= 3 taxa, got 2" {
		t.Errorf("Evolve on 2 tips: %v", err)
	}
	if _, err := Evolve(tr, nil, Params{Sites: 10}, rng); err == nil {
		t.Error("nil model accepted")
	}
}

func TestEvolvedFrequenciesTrackModel(t *testing.T) {
	// With short branches, base frequencies should be near the model's
	// stationary distribution.
	rng := rand.New(rand.NewSource(3))
	m := DefaultModel()
	p := Params{Taxa: 20, Sites: 3000, MeanBranch: 0.05}
	a, _, err := Generate(p, m, rng)
	if err != nil {
		t.Fatal(err)
	}
	f := a.BaseFrequencies()
	for i := 0; i < 4; i++ {
		if math.Abs(f[i]-m.GTR.Freqs[i]) > 0.03 {
			t.Errorf("freq[%d] = %.3f, model %.3f", i, f[i], m.GTR.Freqs[i])
		}
	}
}

func TestCloseRelativesMoreSimilar(t *testing.T) {
	// Sequences should carry phylogenetic signal: average identity between
	// two sequences joined by short paths must exceed that of distant pairs.
	rng := rand.New(rand.NewSource(5))
	m := DefaultModel()
	p := Params{Taxa: 12, Sites: 1000, MeanBranch: 0.15}
	a, tr, err := Generate(p, m, rng)
	if err != nil {
		t.Fatal(err)
	}
	_ = tr
	identity := func(i, j int) float64 {
		same, n := 0, 0
		for k := 0; k < a.NumSites(); k++ {
			ci, cj := a.Seqs[i].Codes[k], a.Seqs[j].Codes[k]
			n++
			if ci == cj {
				same++
			}
		}
		return float64(same) / float64(n)
	}
	// All pairwise identities must be > 0.25 (random) on average.
	total, pairs := 0.0, 0
	for i := 0; i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			total += identity(i, j)
			pairs++
		}
	}
	if mean := total / float64(pairs); mean < 0.35 {
		t.Errorf("mean pairwise identity %.3f: no phylogenetic signal", mean)
	}
}

func TestParams42SCPatternCount(t *testing.T) {
	// The 42_SC stand-in must land near the paper's ~250 distinct patterns
	// (the paper's big loop runs 228 iterations for this input).
	rng := rand.New(rand.NewSource(4251))
	a, _, err := Generate(Params42SC(), DefaultModel(), rng)
	if err != nil {
		t.Fatal(err)
	}
	pat := alignment.Compress(a)
	if pat.NumTaxa != 42 || pat.NumSites != 1167 {
		t.Fatalf("dimensions %dx%d", pat.NumTaxa, pat.NumSites)
	}
	np := pat.NumPatterns()
	if np < 120 || np > 700 {
		t.Errorf("pattern count %d implausibly far from the paper's ~250", np)
	}
	t.Logf("42_SC stand-in: %d distinct patterns", np)
}

func TestGapInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := Params{Taxa: 6, Sites: 2000, MeanBranch: 0.1, GapFraction: 0.1}
	a, _, err := Generate(p, DefaultModel(), rng)
	if err != nil {
		t.Fatal(err)
	}
	gaps, total := 0, 0
	for _, s := range a.Seqs {
		for _, c := range s.Codes {
			total++
			if c == 15 {
				gaps++
			}
		}
	}
	frac := float64(gaps) / float64(total)
	if frac < 0.05 || frac > 0.15 {
		t.Errorf("gap fraction %.3f, want ~0.10", frac)
	}
}
