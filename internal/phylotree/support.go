package phylotree

import "fmt"

// SupportValuesWeighted computes non-parametric bootstrap support: for every
// non-trivial bipartition of the reference tree, the fraction of replicate
// trees that contain the same bipartition. All trees must share the
// reference's taxon order (use AlignTaxa on parsed replicates first).
//
// The replicate set may be deduplicated: replicate i counts weights[i] times,
// so the result is identical — the same integer counts, the same division —
// to expanding every replicate to its multiplicity. A nil weights slice means
// all ones; weights must otherwise match replicates in length with every
// entry >= 1.
func SupportValuesWeighted(ref *Tree, replicates []*Tree, weights []int) (map[Bipartition]float64, error) {
	if len(replicates) == 0 {
		return nil, fmt.Errorf("phylotree: no replicate trees")
	}
	if weights != nil && len(weights) != len(replicates) {
		return nil, fmt.Errorf("phylotree: %d weights for %d replicates", len(weights), len(replicates))
	}
	refBip := ref.Bipartitions()
	counts := make(map[Bipartition]int, len(refBip))
	total := 0
	for i, rep := range replicates {
		w := 1
		if weights != nil {
			if w = weights[i]; w < 1 {
				return nil, fmt.Errorf("phylotree: replicate %d has weight %d, want >= 1", i, w)
			}
		}
		total += w
		if len(rep.Tips) != len(ref.Tips) {
			return nil, fmt.Errorf("phylotree: replicate %d has %d taxa, want %d", i, len(rep.Tips), len(ref.Tips))
		}
		for j := range ref.Taxa {
			if ref.Taxa[j] != rep.Taxa[j] {
				return nil, fmt.Errorf("phylotree: replicate %d taxon order differs at %d", i, j)
			}
		}
		for b := range rep.Bipartitions() {
			if refBip[b] {
				counts[b] += w
			}
		}
	}
	out := make(map[Bipartition]float64, len(refBip))
	for b := range refBip {
		out[b] = float64(counts[b]) / float64(total)
	}
	return out, nil
}
