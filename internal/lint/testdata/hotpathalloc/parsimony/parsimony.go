// Golden input for the parsimony extension of the hotpathalloc scope: this
// file pretends to live in raxmlcell/internal/parsimony. Functions whose
// names contain fitch/stepwise run once per branch of the growing tree, n²
// times per start tree, so an allocation inside them multiplies with it.
package parsimony

import "fmt"

type node struct{ back *node }

func fitchCombine(dst, a, b []uint64) int {
	cost := 0
	for w := range dst {
		tmp := make([]uint64, 4) // want `make allocates inside a per-pattern loop`
		tmp[0] = a[w] & b[w]
		dst[w] = tmp[0]
		cost += int(dst[w] & 1)
	}
	return cost
}

func stepwiseCandidates(edges []*node) []int {
	var costs []int
	for i, e := range edges {
		costs = append(costs, i)      // want `append inside a per-pattern loop`
		_ = fmt.Sprintf("%p", e.back) // want `fmt.Sprintf inside a per-pattern loop`
	}
	return costs
}

func stepwiseScore(edges []*node) int {
	score := func(e *node) int {
		seen := []*node{e} // want `slice/map literal allocates inside a per-iteration closure`
		return len(seen)
	}
	total := 0
	for _, e := range edges {
		total += score(e)
	}
	return total
}

// fitchPrealloc is the sanctioned idiom: every set lives in one slab sized
// when the scorer is built, and the passes only index it.
func fitchPrealloc(slab []uint64, a, b int, words int) {
	for w := 0; w < words; w++ {
		slab[a*words+w] &= slab[b*words+w]
	}
}

// newLayout is outside the hot set (built once per start tree): the same
// patterns are allowed.
func newLayout(weights []int) [][]uint64 {
	var words [][]uint64
	for range weights {
		words = append(words, make([]uint64, 4))
	}
	return words
}
