package search

import (
	"math"
	"math/rand"
	"testing"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/model"
	"raxmlcell/internal/seqsim"
)

func TestFitCATImprovesOverUniformRate(t *testing.T) {
	// Heterogeneous data (small alpha): a fitted CAT model must beat the
	// single-rate model and approach the Gamma fit.
	rng := rand.New(rand.NewSource(401))
	gen := seqsim.DefaultModel() // alpha 0.8, strong heterogeneity
	a, truth, err := seqsim.Generate(seqsim.Params{
		Taxa: 10, Sites: 800, MeanBranch: 0.15, Alpha: 0.8,
	}, gen, rng)
	if err != nil {
		t.Fatal(err)
	}
	pat := alignment.Compress(a)
	gtr := gen.GTR

	tr := truth.Clone()
	// Uniform-rate baseline, branch lengths optimized under it.
	uni := &model.Model{GTR: gtr, Cats: []float64{1}}
	engUni, err := likelihood.NewEngine(pat, uni, likelihood.Config{})
	if err != nil {
		t.Fatal(err)
	}
	llUni, err := SmoothBranches(engUni, tr, 4, 1e-3)
	if err != nil {
		t.Fatal(err)
	}

	catModel, err := FitCAT(engUni, tr, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(catModel.Cats) < 2 || len(catModel.Cats) > 25 {
		t.Fatalf("CAT categories = %d, want 2..25", len(catModel.Cats))
	}
	engCat, err := likelihood.NewEngine(pat, catModel, likelihood.Config{})
	if err != nil {
		t.Fatal(err)
	}
	llCat, err := SmoothBranches(engCat, tr, 4, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if llCat <= llUni {
		t.Errorf("CAT fit (%.4f) not better than uniform rate (%.4f)", llCat, llUni)
	}

	// Gamma reference.
	gam, err := model.NewModel(gtr, 0.8, 4)
	if err != nil {
		t.Fatal(err)
	}
	engGam, err := likelihood.NewEngine(pat, gam, likelihood.Config{})
	if err != nil {
		t.Fatal(err)
	}
	llGam, err := SmoothBranches(engGam, tr, 4, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("uniform %.2f  CAT %.2f  Gamma %.2f", llUni, llCat, llGam)
	// CAT per-site fits typically score at or above Gamma (more free
	// parameters); allow a modest shortfall but catch gross failures.
	if llCat < llGam-math.Abs(llGam)*0.02 {
		t.Errorf("CAT fit %.2f far below Gamma fit %.2f", llCat, llGam)
	}
}

func TestFitCATUsesMultipleCategories(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	gen := seqsim.DefaultModel()
	a, truth, err := seqsim.Generate(seqsim.Params{
		Taxa: 8, Sites: 600, MeanBranch: 0.15, Alpha: 0.5,
	}, gen, rng)
	if err != nil {
		t.Fatal(err)
	}
	pat := alignment.Compress(a)
	uni := &model.Model{GTR: gen.GTR, Cats: []float64{1}}
	eng, err := likelihood.NewEngine(pat, uni, likelihood.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr := truth.Clone()
	if _, err := SmoothBranches(eng, tr, 3, 1e-3); err != nil {
		t.Fatal(err)
	}
	catModel, err := FitCAT(eng, tr, 10)
	if err != nil {
		t.Fatal(err)
	}
	used := map[int]bool{}
	for _, c := range catModel.PatCat {
		used[c] = true
	}
	if len(used) < 3 {
		t.Errorf("CAT assignment uses only %d categories on heterogeneous data", len(used))
	}
}

func TestFitCATValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	gen := seqsim.DefaultModel()
	a, truth, err := seqsim.Generate(seqsim.Params{Taxa: 6, Sites: 100, MeanBranch: 0.1}, gen, rng)
	if err != nil {
		t.Fatal(err)
	}
	pat := alignment.Compress(a)
	eng, err := likelihood.NewEngine(pat, gen, likelihood.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FitCAT(eng, truth, 1); err == nil {
		t.Error("k=1 accepted")
	}
}

// TestFitCATIgnoresUndrawnPatterns: FitCAT counts patterns by weight only,
// so a bootstrap replicate and its drawn patterns (alignment.Drawn) fit the
// same categories and assign every drawn pattern alike. It is deterministic
// too: its refinement probes once ran in map order, and two fits of one
// replicate could differ in the fifth digit.
func TestFitCATIgnoresUndrawnPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	gen := seqsim.DefaultModel()
	a, truth, err := seqsim.Generate(seqsim.Params{Taxa: 8, Sites: 600, MeanBranch: 0.15, Alpha: 0.5}, gen, rng)
	if err != nil {
		t.Fatal(err)
	}
	rep := alignment.BootstrapReplicate(alignment.Compress(a), rng)
	drawn := rep.Drawn()
	fit := func(pat *alignment.Patterns) *model.Model {
		eng, err := likelihood.NewEngine(pat, &model.Model{GTR: gen.GTR, Cats: []float64{1}}, likelihood.Config{})
		if err != nil {
			t.Fatal(err)
		}
		m, err := FitCAT(eng, truth, 10)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	whole := fit(rep)
	for _, part := range []*model.Model{fit(rep), fit(drawn)} {
		if len(whole.Cats) != len(part.Cats) {
			t.Fatalf("%d categories, then %d", len(whole.Cats), len(part.Cats))
		}
		for i := range whole.Cats {
			if math.Float64bits(whole.Cats[i]) != math.Float64bits(part.Cats[i]) {
				t.Fatalf("category %d: rate %.17g, then %.17g", i, whole.Cats[i], part.Cats[i])
			}
		}
	}
	part := fit(drawn)
	j := 0
	for p, w := range rep.Weights {
		if w == 0 {
			continue
		}
		if whole.PatCat[p] != part.PatCat[j] {
			t.Fatalf("pattern %d: category %d, drawn %d", p, whole.PatCat[p], part.PatCat[j])
		}
		j++
	}
}
