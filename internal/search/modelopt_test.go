package search

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/model"
	"raxmlcell/internal/phylotree"
	"raxmlcell/internal/seqsim"
)

// simulateWithModel generates data under a known, asymmetric GTR so rate
// optimization has a signal to find.
func simulateWithModel(t *testing.T, seed int64, taxa, sites int) (*alignment.Patterns, *phylotree.Tree, *model.Model) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, err := model.NewGTR(
		[6]float64{0.8, 6.0, 0.6, 0.9, 5.0, 1.0}, // strong transition bias
		[4]float64{0.3, 0.2, 0.2, 0.3},
	)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewModel(g, 1.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, truth, err := seqsim.Generate(seqsim.Params{Taxa: taxa, Sites: sites, MeanBranch: 0.15, Alpha: 1.2}, m, rng)
	if err != nil {
		t.Fatal(err)
	}
	return alignment.Compress(a), truth, m
}

func TestOptimizeGTRRatesImproves(t *testing.T) {
	pat, truth, gen := simulateWithModel(t, 101, 10, 1000)
	// Start from the wrong model: unit exchangeabilities.
	g, err := model.NewGTR([6]float64{1, 1, 1, 1, 1, 1}, gen.GTR.Freqs)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewModel(g, 1.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := likelihood.NewEngine(pat, m, likelihood.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr := truth.Clone()
	before, err := SmoothBranches(eng, tr, 4, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	rates, after, err := OptimizeGTRRates(context.Background(), eng, tr, 3, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	if after <= before {
		t.Errorf("rate optimization did not improve: %.4f -> %.4f", before, after)
	}
	// The transition rates (AG index 1, CT index 4) were generated much
	// larger than the transversions; the fit must reflect that.
	if rates[1] <= rates[0] || rates[1] <= rates[2] {
		t.Errorf("AG rate %.3f not above transversions %v", rates[1], rates)
	}
	if rates[4] <= rates[3] {
		t.Errorf("CT rate %.3f not above CG %.3f", rates[4], rates[3])
	}
	if rates[5] != 1 {
		t.Errorf("reference rate GT moved: %v", rates[5])
	}
	// Engine left on the fitted model.
	ll, err := eng.Evaluate(tr.Tips[0])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ll-after) > 1e-6*math.Abs(after) {
		t.Errorf("engine model inconsistent: %.6f vs %.6f", ll, after)
	}
}

func TestRunWithModelOpt(t *testing.T) {
	pat, truth, gen := simulateWithModel(t, 105, 8, 500)
	g, err := model.NewGTR([6]float64{1, 1, 1, 1, 1, 1}, gen.GTR.Freqs)
	if err != nil {
		t.Fatal(err)
	}
	run := func(modelOpt bool) float64 {
		m, err := model.NewModel(g, 0.8, 4)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := likelihood.NewEngine(pat, m, likelihood.Config{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(eng, truth.Clone(), Options{
			Radius: 3, MaxRounds: 2, SmoothPasses: 2, Epsilon: 0.05,
			AlphaOpt: true, ModelOpt: modelOpt,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.LogL
	}
	plain := run(false)
	fitted := run(true)
	if fitted <= plain {
		t.Errorf("ModelOpt did not improve on transition-biased data: %.4f vs %.4f", fitted, plain)
	}
}

// TestResultRatesOnlyWhenFitted: a search that fits the exchangeabilities
// returns them, and a fresh engine built from the returned rates and alpha
// scores the returned tree at the returned logL, so a caller can rebuild the
// model the search ended on; a search that fits none returns nil rates.
func TestResultRatesOnlyWhenFitted(t *testing.T) {
	pat, truth, gen := simulateWithModel(t, 107, 8, 300)
	newEngine := func(rates [6]float64, alpha float64) *likelihood.Engine {
		g, err := model.NewGTR(rates, gen.GTR.Freqs)
		if err != nil {
			t.Fatal(err)
		}
		m, err := model.NewModel(g, alpha, 4)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := likelihood.NewEngine(pat, m, likelihood.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	unit := [6]float64{1, 1, 1, 1, 1, 1}
	opt := Options{Radius: 2, MaxRounds: 1, SmoothPasses: 2, Epsilon: 0.05, AlphaOpt: true}
	res, err := Run(newEngine(unit, 0.8), truth.Clone(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rates != nil {
		t.Errorf("a search without ModelOpt returned rates %v", *res.Rates)
	}
	opt.ModelOpt = true
	if res, err = Run(newEngine(unit, 0.8), truth.Clone(), opt); err != nil {
		t.Fatal(err)
	}
	if res.Rates == nil || *res.Rates == unit {
		t.Fatalf("a search with ModelOpt returned rates %v", res.Rates)
	}
	eng := newEngine(*res.Rates, res.Alpha)
	eng.AttachTree(res.Tree)
	ll, err := eng.Evaluate(res.Tree.Tips[0])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ll-res.LogL) > 1e-6*math.Abs(res.LogL) {
		t.Errorf("the returned rates and alpha score the returned tree at %.6f, the search reported %.6f", ll, res.LogL)
	}
}

func TestOptimizeAllConverges(t *testing.T) {
	pat, truth, gen := simulateWithModel(t, 103, 8, 600)
	g, err := model.NewGTR([6]float64{1, 1, 1, 1, 1, 1}, gen.GTR.Freqs)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewModel(g, 0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := likelihood.NewEngine(pat, m, likelihood.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr := truth.Clone()
	ll1, err := OptimizeAll(context.Background(), eng, tr, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// A second cycle must be (nearly) a no-op.
	ll2, err := OptimizeAll(context.Background(), eng, tr, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if ll2 < ll1-0.5 {
		t.Errorf("OptimizeAll unstable: %.4f then %.4f", ll1, ll2)
	}
	if ll2-ll1 > 5 {
		t.Errorf("OptimizeAll had not converged: %.4f then %.4f", ll1, ll2)
	}
}
