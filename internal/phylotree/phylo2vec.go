package phylotree

import "fmt"

// Phylo2Vec is an integer-vector encoding of an unrooted binary topology in
// the style of phylo2vec: v has one entry per taxon, v[0] = v[1] = v[2] = 0,
// and for i >= 3, v[i] is the index of the edge that taxon i subdivides when
// the tree is grown by stepwise addition in taxon order. Edge indices are
// assigned by a fixed replay rule (see edge numbering below), so the vector
// is a pure function of the unrooted topology and the taxon labelling:
// two trees over the same taxon set have equal vectors if and only if they
// have equal topologies. Branch lengths are not encoded.
//
// Edge numbering: the tree restricted to taxa {0, 1} is the single edge 0.
// Attaching taxon i to edge e = (p, q) rewrites e as (p, h) keeping index
// e, then appends (h, q) and (h, i) as the next two indices, where h is the
// new internal node. The restriction to {0..i-1} therefore has 2i-3 edges,
// so v[i] ranges over [0, 2i-4].
//
// Phylo2Vec returns the encoding of a complete topology in O(n) time (map
// operations aside). The inverse is TreeFromPhylo2Vec.
func (t *Tree) Phylo2Vec() ([]int, error) {
	n := t.NumTips()
	if !t.Complete() {
		return nil, fmt.Errorf("phylotree: Phylo2Vec on incomplete topology")
	}
	v := make([]int, n)
	if n == 3 {
		return v, nil
	}

	// Build an index-keyed adjacency copy so peeling does not disturb the
	// live topology. Internal indices may exceed the 2n-2 bound after heavy
	// insert/remove churn, so size by the largest index actually present.
	edges := t.Edges()
	maxIdx := 0
	for _, e := range edges {
		if e.Index > maxIdx {
			maxIdx = e.Index
		}
		if e.Back.Index > maxIdx {
			maxIdx = e.Back.Index
		}
	}
	nbr := make([][]int, maxIdx+1)
	for i := range nbr {
		nbr[i] = make([]int, 0, 3)
	}
	for _, e := range edges {
		a, b := e.Index, e.Back.Index
		nbr[a] = append(nbr[a], b)
		nbr[b] = append(nbr[b], a)
	}

	// Peel tips n-1 down to 3. Removing tip i and its internal host h
	// contracts the path a—h—b back into the edge (a, b) that taxon i
	// subdivided in the restriction to {0..i-1}.
	host := make([]int, n)
	remA := make([]int, n)
	remB := make([]int, n)
	for i := n - 1; i >= 3; i-- {
		if len(nbr[i]) != 1 {
			return nil, fmt.Errorf("phylotree: tip %d has %d neighbors during peel", i, len(nbr[i]))
		}
		h := nbr[i][0]
		var a, b int
		found := 0
		for _, x := range nbr[h] {
			if x == i {
				continue
			}
			if found == 0 {
				a = x
			} else {
				b = x
			}
			found++
		}
		if found != 2 {
			return nil, fmt.Errorf("phylotree: host of tip %d has degree %d during peel", i, found+1)
		}
		host[i], remA[i], remB[i] = h, a, b
		replaceNbr(nbr[a], h, b)
		replaceNbr(nbr[b], h, a)
		nbr[i] = nbr[i][:0]
		nbr[h] = nbr[h][:0]
	}
	// What remains is the star on taxa {0, 1, 2}; its center hosts taxon 2.
	if len(nbr[2]) != 1 {
		return nil, fmt.Errorf("phylotree: peel did not terminate at the 0-1-2 star")
	}
	host[2] = nbr[2][0]

	// Replay stepwise addition, assigning edge indices by the fixed rule.
	// Pairs are unordered for lookup but ordered for the split rewrite.
	type pair struct{ p, q int }
	E := make([]pair, 1, 2*n-3)
	E[0] = pair{0, 1}
	pos := make(map[uint64]int, 2*n-3)
	key := func(a, b int) uint64 {
		if a > b {
			a, b = b, a
		}
		return uint64(a)<<32 | uint64(b)
	}
	pos[key(0, 1)] = 0
	split := func(idx, h, ti int) {
		p, q := E[idx].p, E[idx].q
		delete(pos, key(p, q))
		E[idx] = pair{p, h}
		pos[key(p, h)] = idx
		E = append(E, pair{h, q})
		pos[key(h, q)] = len(E) - 1
		E = append(E, pair{h, ti})
		pos[key(h, ti)] = len(E) - 1
	}
	split(0, host[2], 2) // v[2] = 0 by construction
	for i := 3; i < n; i++ {
		idx, ok := pos[key(remA[i], remB[i])]
		if !ok {
			return nil, fmt.Errorf("phylotree: taxon %d subdivides unknown edge (%d,%d)", i, remA[i], remB[i])
		}
		v[i] = idx
		split(idx, host[i], i)
	}
	return v, nil
}

func replaceNbr(s []int, old, new int) {
	for k, x := range s {
		if x == old {
			s[k] = new
			return
		}
	}
}

// ValidatePhylo2Vec checks the structural constraints of an encoding for n
// taxa: length n, v[0..2] zero, and v[i] in [0, 2i-4] for i >= 3.
func ValidatePhylo2Vec(v []int, n int) error {
	if len(v) != n {
		return fmt.Errorf("phylotree: phylo2vec length %d, want %d taxa", len(v), n)
	}
	if n < 3 {
		return fmt.Errorf("phylotree: phylo2vec needs >= 3 taxa, got %d", n)
	}
	for i := 0; i < 3 && i < len(v); i++ {
		if v[i] != 0 {
			return fmt.Errorf("phylotree: phylo2vec v[%d] = %d, want 0", i, v[i])
		}
	}
	for i := 3; i < len(v); i++ {
		if v[i] < 0 || v[i] > 2*i-4 {
			return fmt.Errorf("phylotree: phylo2vec v[%d] = %d out of range [0, %d]", i, v[i], 2*i-4)
		}
	}
	return nil
}

// TreeFromPhylo2Vec reconstructs the unrooted topology encoded by v over the
// given taxa (the inverse of Phylo2Vec). Branch lengths are the stepwise
// defaults, not the original lengths: the encoding is topology-only.
func TreeFromPhylo2Vec(taxa []string, v []int) (*Tree, error) {
	if err := ValidatePhylo2Vec(v, len(taxa)); err != nil {
		return nil, err
	}
	t, err := NewTree(taxa)
	if err != nil {
		return nil, err
	}
	if err := t.InitTriplet(0, 1, 2); err != nil {
		return nil, err
	}
	// E[idx] holds the record at the edge's first endpoint (its Back is the
	// second). InsertTip at the second endpoint's record keeps the first
	// endpoint's record — and hence E[idx] — valid across the split, and the
	// two new edges (h, q) then (h, tip) append in replay order.
	n := len(taxa)
	E := make([]*Node, 3, 2*n-3)
	center := t.Tips[0].Back
	E[0] = t.Tips[0]        // (taxon0, center)
	E[1] = center.Next      // (center, taxon1)
	E[2] = center.Next.Next // (center, taxon2)
	for i := 3; i < n; i++ {
		recP := E[v[i]]
		recQ := recP.Back
		if err := t.InsertTip(i, recQ); err != nil {
			return nil, fmt.Errorf("phylotree: phylo2vec decode at taxon %d: %w", i, err)
		}
		// recQ.Back is now the new ring; its records facing q and the tip
		// become the next two edges.
		E = append(E, recQ.Back)      // (h, q): Back is recQ
		E = append(E, recP.Back.Next) // (h, tip): the ring record r[0]
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("phylotree: phylo2vec decode produced invalid tree: %w", err)
	}
	return t, nil
}
