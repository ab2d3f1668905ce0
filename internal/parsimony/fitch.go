package parsimony

import (
	"math/bits"
	"slices"

	"raxmlcell/internal/alignment"
)

// Bit-sliced Fitch state sets. A set covers the patterns that can cost
// anything in some tree — weight > 0 and no state common to every taxon; a
// pattern with a common state keeps it in every intersection, so it never
// makes a union event, and a weight-0 pattern counts 0 — packed 64 to a word.
// Each word carries one plane per state, interleaved word-major: set[4w+k]
// holds, at bit j, whether state k is in the set of the word's j-th pattern.
// Words are grouped by pattern weight, heaviest first, so a weighted count is
// wt[w]·popcount per word; the padding bits of a group's last word are
// all-ones in every plane (every state possible), which never costs either.
type bitSets struct {
	nw   int      // words per plane
	wt   []int    // wt[w]: the weight of every pattern packed into word w
	tips []uint64 // taxon t's set: tips[t·4nw : (t+1)·4nw]
}

func newBitSets(pat *alignment.Patterns) *bitSets {
	common := make([]byte, pat.NumPatterns())
	for p := range common {
		common[p] = 0xf
	}
	for _, row := range pat.Data {
		for p, c := range row {
			common[p] &= c
		}
	}
	// Heaviest first, then in pattern order: sort keys (^weight, pattern).
	var keys []uint64
	for p, w := range pat.Weights {
		if w > 0 && common[p] == 0 {
			keys = append(keys, uint64(^uint32(w))<<32|uint64(p))
		}
	}
	slices.Sort(keys)
	keep := make([]int, len(keys))
	for i, k := range keys {
		keep[i] = int(uint32(k))
	}

	// Word w packs keep[from[w]:from[w+1]], at most 64 patterns of one
	// weight: each weight group starts on a fresh word.
	var wt, from []int
	for i, p := range keep {
		if w := pat.Weights[p]; i == 0 || w != wt[len(wt)-1] || i-from[len(from)-1] == 64 {
			from = append(from, i)
			wt = append(wt, w)
		}
	}
	from = append(from, len(keep))

	bs := &bitSets{nw: len(wt), wt: wt, tips: make([]uint64, pat.NumTaxa*4*len(wt))}
	for t, row := range pat.Data {
		set := bs.tip(t)
		for w := range wt {
			group := keep[from[w]:from[w+1]]
			pad := ^uint64(0) << len(group) // all-ones past the last pattern
			p0, p1, p2, p3 := pad, pad, pad, pad
			for b, p := range group {
				c := uint64(row[p])
				p0 |= (c & 1) << b
				p1 |= (c >> 1 & 1) << b
				p2 |= (c >> 2 & 1) << b
				p3 |= (c >> 3 & 1) << b
			}
			set[4*w], set[4*w+1], set[4*w+2], set[4*w+3] = p0, p1, p2, p3
		}
	}
	return bs
}

// tip returns taxon t's state set.
func (bs *bitSets) tip(t int) []uint64 {
	s := 4 * bs.nw
	return bs.tips[t*s : (t+1)*s : (t+1)*s]
}

// fitch writes into dst the Fitch set of the branch joining two subtrees
// whose sets are a and b — their intersection where it is non-empty, their
// union elsewhere — and returns the weighted number of union events.
func (bs *bitSets) fitch(dst, a, b []uint64) int {
	cost := 0
	for w, wt := range bs.wt {
		o := 4 * w
		d, x, y := dst[o:o+4:o+4], a[o:o+4:o+4], b[o:o+4:o+4]
		i0, i1, i2, i3 := x[0]&y[0], x[1]&y[1], x[2]&y[2], x[3]&y[3]
		u := ^(i0 | i1 | i2 | i3)
		d[0] = i0 | u&(x[0]|y[0])
		d[1] = i1 | u&(x[1]|y[1])
		d[2] = i2 | u&(x[2]|y[2])
		d[3] = i3 | u&(x[3]|y[3])
		cost += wt * bits.OnesCount64(u)
	}
	return cost
}

// fitchInsertCost is what inserting a taxon with set t on the branch between
// subtrees a and b adds to the tree's Fitch score: the weighted number of
// patterns where t misses the branch's Fitch set. (The branch's set is
// exactly the set of states its midpoint takes in some most-parsimonious
// reconstruction, so the new tip costs one change there and nothing
// elsewhere.) The count stops as soon as it exceeds bound, returning a value
// that still exceeds it.
func (bs *bitSets) fitchInsertCost(a, b, t []uint64, bound int) int {
	cost := 0
	for w, wt := range bs.wt {
		o := 4 * w
		x, y, z := a[o:o+4:o+4], b[o:o+4:o+4], t[o:o+4:o+4]
		i0, i1, i2, i3 := x[0]&y[0], x[1]&y[1], x[2]&y[2], x[3]&y[3]
		u := ^(i0 | i1 | i2 | i3)
		hit := (i0|u&(x[0]|y[0]))&z[0] | (i1|u&(x[1]|y[1]))&z[1] |
			(i2|u&(x[2]|y[2]))&z[2] | (i3|u&(x[3]|y[3]))&z[3]
		cost += wt * bits.OnesCount64(^hit)
		if cost > bound {
			return cost
		}
	}
	return cost
}
