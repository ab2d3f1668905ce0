// Package search implements RAxML's rapid hill-climbing tree search on top
// of the likelihood kernels: branch-length smoothing sweeps, Gamma shape
// optimization by Brent's method, and radius-bounded lazy SPR rearrangements
// the way RAxML runs them. A pruned subtree's regraft walk goes out from the
// prune point to the radius but stops below an insertion that loses the
// round's likelihood cutoff or more; every insertion the walk reaches is
// prescored unoptimised, and only the short list of the best prescores that
// lost less than the cutoff has the subtree's branch length solved before the
// winner is picked.
package search

import (
	"context"
	"fmt"
	"math"

	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/phylotree"
)

// SmoothBranches runs up to maxPasses Newton sweeps over every branch of
// the tree, stopping early when a full pass improves the log-likelihood by
// less than eps. It returns the final log-likelihood.
//
// Each branch is solved for its length only, at tolerance eps/n for n
// branches: what a pass leaves on all of them together is then below the
// pass's own stopping threshold. The pass's log-likelihood is one Evaluate
// at its last branch, whose two vectors that branch's solve left current.
//
// No explicit cache management is needed here: a length a solve moves
// reaches the engine — through the tree's hooks, or the solve's own
// invalidation on a tree the engine does not observe — so each Newton step
// recomputes only the views the previous step dirtied, not the whole tree.
func SmoothBranches(eng *likelihood.Engine, tr *phylotree.Tree, maxPasses int, eps float64) (float64, error) {
	return smoothBranches(context.Background(), eng, tr, maxPasses, eps, policy{})
}

// smoothBranches is SmoothBranches under pol until ctx is done: with
// pol.exactSmoothing every branch is solved to newtonGainTol and each pass's
// log-likelihood read from its last solve, as before the length-only solve.
func smoothBranches(ctx context.Context, eng *likelihood.Engine, tr *phylotree.Tree, maxPasses int, eps float64, pol policy) (float64, error) {
	if maxPasses <= 0 {
		maxPasses = 1
	}
	edges := tr.Edges()
	tol := eps / float64(len(edges))
	last := math.Inf(-1)
	for pass := 0; pass < maxPasses; pass++ {
		var ll float64
		var err error
		for _, e := range edges {
			if err := halted(ctx); err != nil {
				return 0, err
			}
			if pol.exactSmoothing {
				_, ll, err = eng.MakeNewz(e)
			} else {
				_, err = eng.MakeNewzTo(e, tol)
			}
			if err != nil {
				return 0, fmt.Errorf("search: smoothing: %w", err)
			}
		}
		if !pol.exactSmoothing {
			if ll, err = eng.Evaluate(edges[len(edges)-1]); err != nil {
				return 0, fmt.Errorf("search: smoothing: %w", err)
			}
		}
		if ll-last < eps {
			return ll, nil
		}
		last = ll
	}
	return last, nil
}

// OptimizeAlpha fits the Gamma shape parameter by Brent's method on the tree
// log-likelihood over alpha in [lo, hi], updating the engine's model in
// place. The search runs in log(alpha) space (the likelihood surface is much
// closer to symmetric there) with tol as its resolution, and starts from the
// engine's current alpha, whose likelihood costs no recomputation when the
// engine's vectors are current. It returns the best alpha and its
// log-likelihood.
func OptimizeAlpha(eng *likelihood.Engine, tr *phylotree.Tree, lo, hi, tol float64) (float64, float64, error) {
	return optimizeAlpha(context.Background(), eng, tr, lo, hi, tol)
}

// optimizeAlpha is OptimizeAlpha until ctx is done.
func optimizeAlpha(ctx context.Context, eng *likelihood.Engine, tr *phylotree.Tree, lo, hi, tol float64) (float64, float64, error) {
	if eng.Mod.NumCats() <= 1 {
		// No rate heterogeneity to fit.
		ll, err := eng.Evaluate(tr.Tips[0])
		return eng.Mod.Alpha, ll, err
	}
	if lo <= 0 || hi <= lo {
		return 0, 0, fmt.Errorf("search: bad alpha bounds [%g, %g]", lo, hi)
	}
	if tol <= 0 {
		tol = 1e-3
	}
	eval := func(x float64) (float64, error) {
		if err := halted(ctx); err != nil {
			return 0, err
		}
		m, err := eng.Mod.WithAlpha(math.Exp(x))
		if err != nil {
			return 0, err
		}
		if err := eng.SetModel(m); err != nil {
			return 0, err
		}
		return eng.Evaluate(tr.Tips[0])
	}
	a, b := math.Log(lo), math.Log(hi)
	x0 := math.Log(eng.Mod.Alpha)
	var f0 float64
	var err error
	if x0 >= a && x0 <= b {
		f0, err = eng.Evaluate(tr.Tips[0])
	} else {
		x0 = math.Min(math.Max(x0, a), b)
		f0, err = eval(x0)
	}
	if err != nil {
		return 0, 0, err
	}
	x, ll, there, err := brentMax(eval, a, b, x0, f0, tol)
	if err == nil && !there {
		ll, err = eval(x)
	}
	if err != nil {
		return 0, 0, err
	}
	return eng.Mod.Alpha, ll, nil
}
