package alignment

import (
	"fmt"
	"math/rand"
)

// BootstrapWeights draws a non-parametric bootstrap replicate over the
// compressed patterns: it resamples NumSites columns with replacement, where
// each pattern's selection probability is proportional to its original
// weight. The result is a new per-pattern weight vector whose sum equals the
// original site count — this is the "column re-weighting" the paper
// describes (a certain amount of columns is re-weighted per replicate).
func BootstrapWeights(p *Patterns, rng *rand.Rand) []int {
	n := p.NumPatterns()
	weights := make([]int, n)
	// Cumulative distribution over patterns by original weight.
	cum := make([]int, n)
	total := 0
	for i, w := range p.Weights {
		total += w
		cum[i] = total
	}
	for draw := 0; draw < p.NumSites; draw++ {
		x := rng.Intn(total)
		// Binary search for the first cum[i] > x.
		lo, hi := 0, n-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] > x {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		weights[lo]++
	}
	return weights
}

// BootstrapReplicate returns a Patterns view carrying freshly resampled
// weights for one bootstrap run.
func BootstrapReplicate(p *Patterns, rng *rand.Rand) *Patterns {
	q, err := p.WithWeights(BootstrapWeights(p, rng))
	if err != nil {
		panic(fmt.Sprintf("alignment: internal weight mismatch: %v", err)) // unreachable
	}
	return q
}

// Drawn returns the patterns a replicate drew at least once, with their rows
// and weights, in their original order — p itself when no weight is zero. A
// weight-0 pattern adds 0 to every parsimony count and a signed zero to every
// log-likelihood, derivative and scale-constant sum, so a bootstrap job runs
// on Drawn() with a third fewer pattern iterations. Sums over one block of
// patterns keep their bits; with several blocks they regroup (DESIGN.md "A
// job's start-up").
func (p *Patterns) Drawn() *Patterns {
	var keep []int
	for k, w := range p.Weights {
		if w > 0 {
			keep = append(keep, k)
		}
	}
	if len(keep) == len(p.Weights) {
		return p
	}
	q := *p
	q.Data = make([][]byte, len(p.Data))
	for i, row := range p.Data {
		q.Data[i] = make([]byte, len(keep))
		for j, k := range keep {
			q.Data[i][j] = row[k]
		}
	}
	q.Weights = make([]int, len(keep))
	for j, k := range keep {
		q.Weights[j] = p.Weights[k]
	}
	return &q
}
