package search

import (
	"context"
	"math"

	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/model"
	"raxmlcell/internal/phylotree"
)

// OptimizeGTRRates fits the five free GTR exchangeabilities (GT is the
// conventional reference fixed at 1) by cyclic coordinate search in log
// space (Brent's method per rate), updating the engine's model in place. It
// returns the fitted rates and the final log-likelihood. RAxML performs the
// same style of coordinate-wise model optimization between search phases.
// It stops, returning ctx's cause, once ctx is done.
func OptimizeGTRRates(ctx context.Context, eng *likelihood.Engine, tr *phylotree.Tree, sweeps int, tol float64) ([6]float64, float64, error) {
	if sweeps <= 0 {
		sweeps = 2
	}
	if tol <= 0 {
		tol = 1e-2
	}
	rates := eng.Mod.GTR.Rates
	freqs := eng.Mod.GTR.Freqs
	alpha := eng.Mod.Alpha
	cats := eng.Mod.NumCats()

	apply := func(r [6]float64) (float64, error) {
		if err := halted(ctx); err != nil {
			return 0, err
		}
		g, err := model.NewGTR(r, freqs)
		if err != nil {
			return 0, err
		}
		m, err := model.NewModel(g, alpha, cats)
		if err != nil {
			return 0, err
		}
		if err := eng.SetModel(m); err != nil {
			return 0, err
		}
		return eng.Evaluate(tr.Tips[0])
	}

	// The engine sits on `rates` before and after every coordinate search.
	best, err := apply(rates)
	if err != nil {
		return rates, 0, err
	}
	for sweep := 0; sweep < sweeps; sweep++ {
		improved := false
		for i := 0; i < 5; i++ { // rate 5 (GT) stays fixed at 1
			eval := func(x float64) (float64, error) {
				r := rates
				r[i] = math.Exp(x)
				return apply(r)
			}
			// Bracket around the current value in log space.
			x0 := math.Log(rates[i])
			x, ll, there, err := brentMax(eval, x0-1.5, x0+1.5, x0, best, tol)
			if err != nil {
				return rates, 0, err
			}
			if ll > best {
				if ll > best+1e-9 {
					improved = true
				}
				best = ll
				rates[i] = math.Exp(x)
			}
			if !there {
				if _, err := apply(rates); err != nil {
					return rates, 0, err
				}
			}
		}
		if !improved {
			break
		}
	}
	return rates, best, nil
}

// OptimizeAll runs the full model-plus-branch optimization cycle RAxML
// applies to a fixed topology: branch smoothing, Gamma shape, GTR rates,
// iterated until the likelihood gain per cycle drops below eps, or until
// ctx is done.
func OptimizeAll(ctx context.Context, eng *likelihood.Engine, tr *phylotree.Tree, eps float64) (float64, error) {
	if eps <= 0 {
		eps = 0.05
	}
	last := math.Inf(-1)
	for cycle := 0; cycle < 10; cycle++ {
		if _, err := smoothBranches(ctx, eng, tr, 4, eps/4, policy{}); err != nil {
			return 0, err
		}
		if _, _, err := optimizeAlpha(ctx, eng, tr, 0.02, 50, 1e-2); err != nil {
			return 0, err
		}
		_, ll, err := OptimizeGTRRates(ctx, eng, tr, 1, 2e-2)
		if err != nil {
			return 0, err
		}
		if ll-last < eps {
			return ll, nil
		}
		last = ll
	}
	return last, nil
}
