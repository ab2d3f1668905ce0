package search

import (
	"fmt"
	"math"
	"sort"

	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/model"
	"raxmlcell/internal/phylotree"
)

// FitCAT estimates a per-site rate-category (CAT) model on a fixed tree:
// every site pattern is scored under k candidate rates (log-spaced over
// [minRate, maxRate], the spread RAxML's 25-category default covers) and
// assigned to the rate that maximizes its own likelihood; the assignment is
// then normalized to a weighted mean rate of 1 and packaged as a CAT model.
//
// The returned model has a different storage layout than the engine's
// (one category per site), so the caller builds a fresh Engine for it.
func FitCAT(eng *likelihood.Engine, tr *phylotree.Tree, k int) (*model.Model, error) {
	if k < 2 {
		return nil, fmt.Errorf("search: CAT needs >= 2 categories, got %d", k)
	}
	const minRate, maxRate = 0.05, 10.0
	pat := eng.Pat
	g := eng.Mod.GTR

	cands := make([]float64, k)
	for i := range cands {
		f := float64(i) / float64(k-1)
		cands[i] = math.Exp(math.Log(minRate) + f*(math.Log(maxRate)-math.Log(minRate)))
	}

	bestLL := make([]float64, pat.NumPatterns())
	bestRate := make([]float64, pat.NumPatterns())
	for i := range bestLL {
		bestLL[i] = math.Inf(-1)
	}

	anchor := tr.Tips[0]
	var perSite []float64
	score := func(rate float64) error {
		// A single fixed-rate model: Cats = [rate], no averaging.
		m := &model.Model{GTR: g, Cats: []float64{rate}}
		probe, err := likelihood.NewEngine(pat, m, eng.Cfg)
		if err != nil {
			return err
		}
		perSite, err = probe.PerSiteLogL(anchor, perSite)
		if err != nil {
			return err
		}
		for p, ll := range perSite {
			if ll > bestLL[p] {
				bestLL[p] = ll
				bestRate[p] = rate
			}
		}
		return nil
	}
	for _, rate := range cands {
		if err := score(rate); err != nil {
			return nil, err
		}
	}
	// Refinement pass: probe between the coarse grid points actually in
	// use, so each site's rate is located to half a grid step. Patterns of
	// weight 0 (undrawn by a bootstrap replicate) use nothing: counted here
	// or in the buckets below they would steer the fit, and a replicate
	// would fit differently from its alignment.Drawn() patterns. The probes
	// run in grid order: the two probes between neighbouring grid points
	// can tie, and the first to reach a pattern keeps it.
	used := map[float64]bool{}
	for p, r := range bestRate {
		if pat.Weights[p] > 0 {
			used[r] = true
		}
	}
	step := math.Sqrt(cands[1] / cands[0]) // half a log-step
	for _, r := range cands {
		if !used[r] {
			continue
		}
		for _, refined := range []float64{r / step, r * step} {
			if refined >= minRate/2 && refined <= maxRate*2 {
				if err := score(refined); err != nil {
					return nil, err
				}
			}
		}
	}
	// Collapse the fitted per-site rates to at most k categories: merge the
	// closest adjacent distinct rates (in log space, weighted by site
	// count) until k remain — RAxML's categorization step.
	type bucket struct {
		logRate float64
		weight  float64
	}
	distinctW := map[float64]float64{}
	for p, r := range bestRate {
		if pat.Weights[p] > 0 {
			distinctW[r] += float64(pat.Weights[p])
		}
	}
	var buckets []bucket
	for r, w := range distinctW {
		buckets = append(buckets, bucket{math.Log(r), w})
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].logRate < buckets[j].logRate })
	for len(buckets) > k {
		// Find the closest adjacent pair.
		best, gap := 0, math.Inf(1)
		for i := 0; i+1 < len(buckets); i++ {
			if d := buckets[i+1].logRate - buckets[i].logRate; d < gap {
				gap, best = d, i
			}
		}
		a, b := buckets[best], buckets[best+1]
		merged := bucket{
			logRate: (a.logRate*a.weight + b.logRate*b.weight) / (a.weight + b.weight),
			weight:  a.weight + b.weight,
		}
		buckets = append(buckets[:best], append([]bucket{merged}, buckets[best+2:]...)...)
	}
	rates := make([]float64, len(buckets))
	for i, b := range buckets {
		rates[i] = math.Exp(b.logRate)
	}
	// Assign each site to the nearest category in log space.
	assign := make([]int, pat.NumPatterns())
	for p, r := range bestRate {
		lr := math.Log(r)
		bi, bd := 0, math.Inf(1)
		for i, b := range buckets {
			if d := math.Abs(lr - b.logRate); d < bd {
				bd, bi = d, i
			}
		}
		assign[p] = bi
	}
	return model.NewCATModel(g, rates, assign, pat.Weights)
}
