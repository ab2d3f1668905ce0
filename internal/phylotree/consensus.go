package phylotree

import (
	"fmt"
	"sort"
)

// MajorityRuleConsensusWeighted builds the (extended) majority-rule
// consensus of a set of trees over the same taxon set: every bipartition
// appearing in more than threshold (e.g. 0.5) of the input trees becomes a
// clade of the consensus. The result may be multifurcating; it is returned as
// a rooted clade structure (ConsensusNode) rather than a binary Tree, exactly
// like the consensus output of phylogenetics packages.
//
// The tree set may be deduplicated: tree i counts weights[i] times. Every
// count, the majority cutoff and the reported supports are computed from the
// same integers the expanded set would produce, so the consensus is identical
// to replicating each tree to its multiplicity. A nil weights slice means all
// ones; weights must otherwise match trees in length with every entry >= 1.
func MajorityRuleConsensusWeighted(trees []*Tree, weights []int, threshold float64) (*ConsensusNode, error) {
	if len(trees) == 0 {
		return nil, fmt.Errorf("phylotree: no trees for consensus")
	}
	if weights != nil && len(weights) != len(trees) {
		return nil, fmt.Errorf("phylotree: %d weights for %d trees", len(weights), len(trees))
	}
	if threshold < 0.5 || threshold >= 1 {
		return nil, fmt.Errorf("phylotree: consensus threshold %g must be in [0.5, 1)", threshold)
	}
	ref := trees[0]
	n := len(ref.Tips)
	counts := make(map[Bipartition]int)
	total := 0
	for i, t := range trees {
		w := 1
		if weights != nil {
			if w = weights[i]; w < 1 {
				return nil, fmt.Errorf("phylotree: tree %d has weight %d, want >= 1", i, w)
			}
		}
		total += w
		if len(t.Tips) != n {
			return nil, fmt.Errorf("phylotree: tree %d has %d taxa, want %d", i, len(t.Tips), n)
		}
		for j := range ref.Taxa {
			if t.Taxa[j] != ref.Taxa[j] {
				return nil, fmt.Errorf("phylotree: tree %d taxon order differs at %d", i, j)
			}
		}
		for b := range t.Bipartitions() {
			counts[b] += w
		}
	}

	// Keep bipartitions above threshold; they are guaranteed pairwise
	// compatible (any two clades present together in >50% of trees must
	// co-occur in at least one tree, hence nest or be disjoint).
	type clade struct {
		bits    []uint64
		size    int
		support float64
	}
	var clades []clade
	minCount := int(threshold*float64(total)) + 1
	//lint:ignore floatcmp 0.5 is exactly representable; this detects the strict-majority special case, not a computed value
	if threshold == 0.5 && total%2 == 0 {
		minCount = total/2 + 1
	}
	for b, c := range counts {
		if c < minCount {
			continue
		}
		bits := bitsOf(b)
		clades = append(clades, clade{
			bits:    bits,
			size:    popcount(bits),
			support: float64(c) / float64(total),
		})
	}
	// Sort by size descending so parents precede children.
	sort.Slice(clades, func(i, j int) bool {
		if clades[i].size != clades[j].size {
			return clades[i].size > clades[j].size
		}
		return lessBits(clades[i].bits, clades[j].bits)
	})

	words := (n + 63) / 64
	rootBits := make([]uint64, words)
	for i := 0; i < n; i++ {
		rootBits[i/64] |= 1 << (i % 64)
	}
	root := &ConsensusNode{Support: 1}
	nodes := []*consensusBuild{{node: root, bits: rootBits}}

	for _, cl := range clades {
		// Find the smallest existing clade containing this one.
		parent := nodes[0]
		for _, cand := range nodes[1:] {
			if containsBits(cand.bits, cl.bits) &&
				(parent == nil || popcount(cand.bits) < popcount(parent.bits)) {
				parent = cand
			}
		}
		child := &consensusBuild{
			node: &ConsensusNode{Support: cl.support},
			bits: cl.bits,
		}
		parent.node.Children = append(parent.node.Children, child.node)
		parent.children = append(parent.children, child)
		nodes = append(nodes, child)
	}

	// Attach tips to the smallest clade containing them.
	for ti := 0; ti < n; ti++ {
		var owner *consensusBuild
		for _, cand := range nodes {
			if cand.bits[ti/64]&(1<<(ti%64)) != 0 &&
				(owner == nil || popcount(cand.bits) < popcount(owner.bits)) {
				owner = cand
			}
		}
		owner.node.Children = append(owner.node.Children, &ConsensusNode{
			Name: ref.Taxa[ti], Support: 1,
		})
	}
	return root, nil
}

// ConsensusNode is one clade of a (possibly multifurcating) consensus tree.
type ConsensusNode struct {
	Name     string  // taxon name for leaves, empty for clades
	Support  float64 // fraction of input trees containing this clade
	Children []*ConsensusNode
}

type consensusBuild struct {
	node     *ConsensusNode
	bits     []uint64
	children []*consensusBuild
}

// IsLeaf reports whether the node is a taxon.
func (c *ConsensusNode) IsLeaf() bool { return len(c.Children) == 0 }

// Newick renders the consensus with support values as internal labels.
func (c *ConsensusNode) Newick() string {
	return c.newick(true) + ";"
}

func (c *ConsensusNode) newick(root bool) string {
	if c.IsLeaf() {
		return quoteName(c.Name)
	}
	s := "("
	for i, ch := range c.Children {
		if i > 0 {
			s += ","
		}
		s += ch.newick(false)
	}
	s += ")"
	if !root {
		s += fmt.Sprintf("%.2f", c.Support)
	}
	return s
}

// CountClades returns the number of internal (non-root, non-leaf) clades.
func (c *ConsensusNode) CountClades() int {
	n := 0
	for _, ch := range c.Children {
		if !ch.IsLeaf() {
			n += 1 + ch.CountClades()
		}
	}
	return n
}

// --- bitset helpers over the Bipartition byte encoding ---

func bitsOf(b Bipartition) []uint64 {
	raw := []byte(b)
	out := make([]uint64, len(raw)/8)
	for w := range out {
		var v uint64
		for i := 0; i < 8; i++ {
			v |= uint64(raw[8*w+i]) << (8 * i)
		}
		out[w] = v
	}
	return out
}

func popcount(bits []uint64) int {
	n := 0
	for _, w := range bits {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// containsBits reports whether sup is a superset of sub.
func containsBits(sup, sub []uint64) bool {
	for i := range sub {
		if sub[i]&^sup[i] != 0 {
			return false
		}
	}
	return true
}

func lessBits(a, b []uint64) bool {
	for i := len(a) - 1; i >= 0; i-- {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
