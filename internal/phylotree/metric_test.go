package phylotree_test

import (
	"fmt"
	"math/rand"
	"testing"

	"raxmlcell/internal/phylotree"
	"raxmlcell/internal/phylotree/treegen"
)

// TestRobinsonFouldsIsAMetric: on uniform phylo2vec topologies and the
// caterpillar, RF is a metric on unrooted topologies — 0 exactly when the
// topology hashes agree (a tree against itself, its clone and its own Newick
// read back included), symmetric, and within the triangle inequality on
// every triple — and never above 2(n−3). A tree's support against itself is
// 1 on each of its n−3 bipartitions.
func TestRobinsonFouldsIsAMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(1207))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(21)
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("t%02d", i)
		}
		trees := []*phylotree.Tree{treegen.Caterpillar(names)}
		for len(trees) < 5 {
			trees = append(trees, treegen.Phylo2Vec(names, rng))
		}
		trees = append(trees, trees[1].Clone())
		back, err := phylotree.ParseNewick(trees[2].Newick())
		if err != nil {
			t.Fatal(err)
		}
		if err := back.AlignTaxa(names); err != nil {
			t.Fatal(err)
		}
		trees = append(trees, back)

		hasher := phylotree.NewTopoHasher(n)
		hashes := make([]phylotree.TopoHash, len(trees))
		for i, tr := range trees {
			if hashes[i], err = hasher.TreeHash(tr); err != nil {
				t.Fatal(err)
			}
		}
		d := make([][]int, len(trees))
		for i, a := range trees {
			d[i] = make([]int, len(trees))
			for j, b := range trees {
				if d[i][j], err = phylotree.RobinsonFoulds(a, b); err != nil {
					t.Fatal(err)
				}
				if (d[i][j] == 0) != (hashes[i] == hashes[j]) {
					t.Errorf("n=%d trees %d, %d: RF %d, hashes equal %v", n, i, j, d[i][j], hashes[i] == hashes[j])
				}
				if d[i][j] < 0 || d[i][j] > 2*(n-3) {
					t.Errorf("n=%d trees %d, %d: RF %d outside [0, %d]", n, i, j, d[i][j], 2*(n-3))
				}
			}
		}
		for i := range trees {
			if d[i][i] != 0 {
				t.Errorf("n=%d tree %d: RF to itself %d", n, i, d[i][i])
			}
			for j := range trees {
				if d[i][j] != d[j][i] {
					t.Errorf("n=%d: RF(%d,%d)=%d, RF(%d,%d)=%d", n, i, j, d[i][j], j, i, d[j][i])
				}
				for k := range trees {
					if d[i][k] > d[i][j]+d[j][k] {
						t.Errorf("n=%d: RF(%d,%d)=%d > RF(%d,%d)+RF(%d,%d)=%d",
							n, i, k, d[i][k], i, j, j, k, d[i][j]+d[j][k])
					}
				}
			}
		}

		for i, tr := range trees {
			sup, err := phylotree.SupportValuesWeighted(tr, []*phylotree.Tree{tr}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(sup) != n-3 {
				t.Errorf("n=%d tree %d: %d bipartitions, want %d", n, i, len(sup), n-3)
			}
			for _, v := range sup {
				if v != 1 {
					t.Errorf("n=%d tree %d: support against itself %v, want 1", n, i, v)
				}
			}
		}
	}
}
