// Package parsimony implements Fitch maximum parsimony scoring and the
// randomized stepwise-addition-order starting trees RAxML uses to seed its
// maximum likelihood searches ("random stepwise addition sequence Maximum
// Parsimony trees" in the paper's terminology).
//
// Fitch state sets are the 4-bit ambiguity masks of internal/bio, bit-sliced
// 64 patterns to a word (fitch.go): intersection is bitwise AND, union is
// bitwise OR, and a union event costs one mutation weighted by the site
// pattern's multiplicity. A stepwise step writes the set behind every
// directed record of the current tree in one post-order and one pre-order
// pass, then scores each candidate branch from the two sets at its ends
// without building the candidate tree — O(n²·m′/64) words per start tree
// where inserting and re-scoring every candidate was O(n³·m) bytes (DESIGN.md
// "A job's start-up").
package parsimony

import (
	"fmt"
	"math"
	"math/rand"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/phylotree"
)

// scorer holds the bit-sliced tip sets of one alignment, the Fitch set behind
// every directed record of one tree walk, and the walk itself. Nothing in it
// is allocated after newScorer.
type scorer struct {
	*bitSets
	n     int
	views []uint64          // three sets per inner node: behind its record facing the root, behind .Next, behind .Next.Next
	face  []*phylotree.Node // face[idx]: the record of inner node idx that faces the root tip
	edges []*phylotree.Node // the near record of every branch, in tr.Edges() order
	stack []*phylotree.Node
	tmp   []uint64
}

func newScorer(pat *alignment.Patterns) *scorer {
	bs := newBitSets(pat)
	n := pat.NumTaxa
	return &scorer{
		bitSets: bs,
		n:       n,
		views:   make([]uint64, 3*(n-2)*4*bs.nw),
		face:    make([]*phylotree.Node, 2*n-2),
		edges:   make([]*phylotree.Node, 2*n-3),
		stack:   make([]*phylotree.Node, 2*n-3),
		tmp:     make([]uint64, 4*bs.nw),
	}
}

// view returns slot k of inner node idx (0: behind its record facing the
// root, 1: behind .Next, 2: behind .Next.Next).
func (s *scorer) view(idx, k int) []uint64 {
	w := 4 * s.nw
	o := (3*(idx-s.n) + k) * w
	return s.views[o : o+w : o+w]
}

// set returns the Fitch set of the subtree behind r — r's own side of its
// branch — as the last passes wrote it.
func (s *scorer) set(r *phylotree.Node) []uint64 {
	if r.IsTip() {
		return s.tip(r.Index)
	}
	switch f := s.face[r.Index]; r {
	case f:
		return s.view(r.Index, 0)
	case f.Next:
		return s.view(r.Index, 1)
	}
	return s.view(r.Index, 2)
}

// walk lists the branches of the component holding tip root in the order
// tr.Edges() gives when root is the first attached tip — depth first, the
// near record of each branch before the branches behind it — and marks which
// record of every inner node faces root.
func (s *scorer) walk(root *phylotree.Node) []*phylotree.Node {
	sp, ne := 1, 0
	s.stack[0] = root
	for sp > 0 {
		sp--
		e := s.stack[sp]
		s.edges[ne] = e
		ne++
		if f := e.Back; !f.IsTip() {
			s.face[f.Index] = f
			s.stack[sp], s.stack[sp+1] = f.Next.Next, f.Next
			sp += 2
		}
	}
	return s.edges[:ne]
}

// down is the post-order pass over a walk: the set behind every record facing
// the root, children before parents. It returns the weighted union events.
func (s *scorer) down(edges []*phylotree.Node) int {
	cost := 0
	for i := len(edges) - 1; i >= 0; i-- {
		if f := edges[i].Back; !f.IsTip() {
			cost += s.fitch(s.view(f.Index, 0), s.set(f.Next.Back), s.set(f.Next.Next.Back))
		}
	}
	return cost
}

// up is the pre-order pass over a walk, after down: the set behind the two
// records of every inner node that face away from the root, parents first.
func (s *scorer) up(edges []*phylotree.Node) {
	for _, e := range edges {
		if f := e.Back; !f.IsTip() {
			above := s.set(e)
			s.fitch(s.view(f.Index, 1), above, s.set(f.Next.Next.Back))
			s.fitch(s.view(f.Index, 2), above, s.set(f.Next.Back))
		}
	}
}

// score is the Fitch score of the component holding tip root, rooted on
// root's branch.
func (s *scorer) score(root *phylotree.Node) int {
	edges := s.walk(root)
	return s.down(edges) + s.fitch(s.tmp, s.set(root), s.set(root.Back))
}

// firstAttached is the tip tr.Edges() starts from.
func firstAttached(tr *phylotree.Tree) *phylotree.Node {
	for _, tip := range tr.Tips {
		if tip.Back != nil {
			return tip
		}
	}
	return nil
}

// stepwiseBest returns the branch of tr on which tip ti minimizes the Fitch
// score, ties broken uniformly at random by reservoir sampling in
// tr.Edges() order. A candidate's score is the tree's plus its insertion cost,
// so scores compare and tie exactly as whole-tree re-scores of every
// candidate would, and draw the same rng.Intn.
func (s *scorer) stepwiseBest(tr *phylotree.Tree, ti int, rng *rand.Rand) *phylotree.Node {
	edges := s.walk(firstAttached(tr))
	s.down(edges)
	s.up(edges)
	t := s.tip(ti)
	best, bestScore, nBest := -1, math.MaxInt, 0
	for k, e := range edges {
		switch sc := s.fitchInsertCost(s.set(e), s.set(e.Back), t, bestScore); {
		case sc < bestScore:
			best, bestScore, nBest = k, sc, 1
		case sc == bestScore:
			nBest++
			if rng.Intn(nBest) == 0 {
				best = k
			}
		}
		// Inserting on e and removing again, as each candidate once was,
		// halves e into two clamped halves and sums them back: a branch
		// shorter than two minimum halves came back at exactly two. Keep
		// doing so, so the tree stays the byte-identical one.
		if e.Z/2 < phylotree.MinBranchLength {
			e.SetZ(2 * phylotree.MinBranchLength)
		}
	}
	return edges[best]
}

// BuildStepwise constructs a randomized stepwise-addition parsimony tree:
// taxa are added in random order, each at the insertion branch that
// minimizes the Fitch score (ties broken uniformly at random). This is the
// starting-tree generator for every inference and bootstrap run.
func BuildStepwise(pat *alignment.Patterns, rng *rand.Rand) (*phylotree.Tree, error) {
	if pat.NumTaxa < 3 {
		return nil, fmt.Errorf("parsimony: need >= 3 taxa, got %d", pat.NumTaxa)
	}
	tr, err := phylotree.NewTree(pat.Names)
	if err != nil {
		return nil, err
	}
	order := rng.Perm(pat.NumTaxa)
	if err := tr.InitTriplet(order[0], order[1], order[2]); err != nil {
		return nil, err
	}
	s := newScorer(pat)
	for _, ti := range order[3:] {
		if err := tr.InsertTip(ti, s.stepwiseBest(tr, ti, rng)); err != nil {
			return nil, err
		}
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}
