// Package treegen draws the trees the property tests run on, so that they
// hold on generated topologies and not on a few fixtures: uniform topologies
// through the phylo2vec codec, and the caterpillar, the deepest tree over a
// taxon set. Only tests import it.
package treegen

import (
	"math/rand"

	"raxmlcell/internal/phylotree"
)

// Phylo2Vec draws a uniform topology over names through the phylo2vec
// codec: any v with v[i] in [0, 2i-4] is a tree. Branch lengths are the
// codec's defaults.
func Phylo2Vec(names []string, rng *rand.Rand) *phylotree.Tree {
	v := make([]int, len(names))
	for i := 3; i < len(v); i++ {
		v[i] = rng.Intn(2*i - 3)
	}
	return decode(names, v)
}

// Caterpillar is the ladder over names: every taxon after the first joins
// the pendant branch of taxon 0, so the tree is as deep as it can be.
func Caterpillar(names []string) *phylotree.Tree {
	return decode(names, make([]int, len(names)))
}

func decode(names []string, v []int) *phylotree.Tree {
	tr, err := phylotree.TreeFromPhylo2Vec(names, v)
	if err != nil {
		panic("treegen: " + err.Error()) // every vector drawn here is in the codec's domain
	}
	return tr
}
