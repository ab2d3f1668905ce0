// Golden input for the widened hotpathalloc scope: this file pretends to
// live in raxmlcell/internal/search. Functions whose names contain
// spr/insertion are the search hot loop; per-round buffers (candidate
// lists, score tables) must be hoisted onto the search context, not
// reallocated inside the round loop. brent is the model optimisers'
// maximiser: its loop body is one full-tree recomputation and a few floats.
package search

import "fmt"

type node struct{ z float64 }

func sprRoundAllocs(prunes int) float64 {
	total := 0.0
	for p := 0; p < prunes; p++ {
		cands := make([]*node, 0, 8)   // want `make allocates inside a per-pattern loop`
		scores := []float64{0, 0}      // want `slice/map literal allocates inside a per-pattern loop`
		cands = append(cands, &node{}) // want `append inside a per-pattern loop`
		_ = fmt.Sprintf("prune %d", p) // want `fmt.Sprintf inside a per-pattern loop`
		total += scores[0] + cands[0].z
	}
	return total
}

func scoreInsertionsClosure(n int) float64 {
	worker := func(i int) float64 {
		buf := make([]float64, 4) // want `make allocates inside a per-iteration closure`
		return buf[0] + float64(i)
	}
	s := 0.0
	for i := 0; i < n; i++ {
		s += worker(i)
	}
	return s
}

func sprTargetsPrealloc(out []*node, rounds int) []*node {
	// Reusing a caller-owned buffer and unrolled appends outside loops are
	// the sanctioned idiom: nothing to report.
	out = out[:0]
	out = append(out, &node{z: float64(rounds)})
	return out
}

func brentMaxHistory(f func(float64) float64, evals int) float64 {
	var seen []float64
	best := 0.0
	for i := 0; i < evals; i++ {
		seen = append(seen, f(float64(i))) // want `append inside a per-pattern loop`
		best += seen[i]
	}
	return best
}

// collectCandidates is outside the hot set: the same patterns are allowed.
func collectCandidates(n int) []*node {
	var out []*node
	for i := 0; i < n; i++ {
		out = append(out, &node{z: float64(i)})
	}
	return out
}
