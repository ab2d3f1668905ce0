package phylotree

import "fmt"

// TopoHash is a 128-bit canonical topology fingerprint. Two complete trees
// over the same taxon set hash equal iff they have the same unrooted
// topology (up to the usual probabilistic collision bound of a 128-bit
// hash); representation details — traversal order, ring rotation, which tip
// anchors the recursion, branch lengths — do not affect it.
//
// The hash is a wrapping sum over all edges of a per-bipartition term.
type TopoHash [2]uint64

// String renders the fingerprint as 32 hex digits.
func (h TopoHash) String() string { return fmt.Sprintf("%016x%016x", h[0], h[1]) }

func (h TopoHash) add(o TopoHash) TopoHash { return TopoHash{h[0] + o[0], h[1] + o[1]} }

// splitmix64 is the SplitMix64 finalizer, a cheap full-avalanche mix.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

const (
	topoSalt0 = 0x8c2f1d6a9be43710
	topoSalt1 = 0x5e71c9ab04d8f326
)

// TopoHasher derives per-tip Zobrist keys for a fixed taxon count and turns
// tip-set sums into per-bipartition hash terms. One hasher is shared by all
// hashing for a given alignment; it is immutable after construction and safe
// for concurrent use.
type TopoHasher struct {
	n          int
	keyA, keyB []uint64 // independent per-tip keys for the two lanes
}

// NewTopoHasher builds the key tables for n taxa.
func NewTopoHasher(n int) *TopoHasher {
	h := &TopoHasher{
		n:    n,
		keyA: make([]uint64, n),
		keyB: make([]uint64, n),
	}
	for i := 0; i < n; i++ {
		h.keyA[i] = splitmix64(uint64(i)*2 + 1)
		h.keyB[i] = splitmix64(uint64(i)*2 + 0x4000000000000000)
	}
	return h
}

// term maps one bipartition to its hash contribution. (a, b) are the
// wrapping key sums of the tip set on the side away from tip 0.
func term(a, b uint64) TopoHash {
	x0 := splitmix64(a ^ topoSalt0)
	x1 := splitmix64(a ^ topoSalt1)
	return TopoHash{splitmix64(x0 ^ b), splitmix64(x1 ^ b)}
}

// TreeHash computes the canonical fingerprint of a complete topology in one
// O(n) postorder from tip 0. Every edge contributes its bipartition term;
// the recursion always carries the side away from tip 0.
func (h *TopoHasher) TreeHash(t *Tree) (TopoHash, error) {
	if t.NumTips() != h.n {
		return TopoHash{}, fmt.Errorf("phylotree: hasher built for %d taxa, tree has %d", h.n, t.NumTips())
	}
	if !t.Complete() {
		return TopoHash{}, fmt.Errorf("phylotree: TreeHash on incomplete topology")
	}
	var sum TopoHash
	edges := 0
	var rec func(nd *Node) (uint64, uint64)
	rec = func(nd *Node) (uint64, uint64) {
		back := nd.Back
		var a, b uint64
		if back.IsTip() {
			a, b = h.keyA[back.Index], h.keyB[back.Index]
		} else {
			for _, r := range back.Ring() {
				if r != back {
					ra, rb := rec(r)
					a += ra
					b += rb
				}
			}
		}
		sum = sum.add(term(a, b))
		edges++
		return a, b
	}
	rec(t.Tips[0])
	if want := 2*h.n - 3; edges != want {
		return TopoHash{}, fmt.Errorf("phylotree: TreeHash visited %d edges, want %d", edges, want)
	}
	return sum, nil
}

// DedupTopologies groups trees by canonical topology hash, returning the
// first representative of each distinct topology (input order preserved)
// and, aligned with it, each representative's multiplicity. All trees must
// share one taxon set in one order (AlignTaxa parsed trees first): the hash
// is relabel-sensitive by design, so taxon index i must mean the same taxon
// everywhere. Branch lengths are ignored — two trees dedupe iff they are
// the same unrooted topology. Callers feeding consensus or support should
// pair the result with the *Weighted variants, which reproduce the
// undeduplicated answer exactly.
func DedupTopologies(trees []*Tree) (uniq []*Tree, weights []int, err error) {
	if len(trees) == 0 {
		return nil, nil, nil
	}
	h := NewTopoHasher(len(trees[0].Tips))
	idx := make(map[TopoHash]int, len(trees))
	for i, t := range trees {
		th, err := h.TreeHash(t)
		if err != nil {
			return nil, nil, fmt.Errorf("phylotree: dedup tree %d: %w", i, err)
		}
		if j, ok := idx[th]; ok {
			weights[j]++
			continue
		}
		idx[th] = len(uniq)
		uniq = append(uniq, t)
		weights = append(weights, 1)
	}
	return uniq, weights, nil
}
