package parsimony

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/bio"
	"raxmlcell/internal/phylotree"
	"raxmlcell/internal/phylotree/treegen"
	"raxmlcell/internal/seqsim"
)

// mustScore is the weighted Fitch score of a complete tree.
func mustScore(t testing.TB, tr *phylotree.Tree, pat *alignment.Patterns) int {
	t.Helper()
	if tr.NumTips() != pat.NumTaxa {
		t.Fatalf("tree has %d tips, alignment %d taxa", tr.NumTips(), pat.NumTaxa)
	}
	return newScorer(pat).score(tr.Tips[0])
}

// TestInsertionCostIsScoreDifference: on every branch of a generated tree
// with one taxon removed, the insertion cost the passes give is the score after
// InsertTip minus the score before.
func TestInsertionCostIsScoreDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for c := 0; c < 30; c++ {
		pat := randomPatterns(rng, 4+rng.Intn(30), 1+rng.Intn(140), c%2 == 0)
		tr := treegen.Phylo2Vec(pat.Names, rng)
		ti := rng.Intn(pat.NumTaxa)
		if err := tr.RemoveTip(ti); err != nil {
			t.Fatal(err)
		}
		s := newScorer(pat)
		before := s.score(firstAttached(tr))
		edges := append([]*phylotree.Node(nil), s.walk(firstAttached(tr))...)
		s.down(edges)
		s.up(edges)
		for k, e := range edges {
			cost := s.fitchInsertCost(s.set(e), s.set(e.Back), s.tip(ti), math.MaxInt)
			if err := tr.InsertTip(ti, e); err != nil {
				t.Fatal(err)
			}
			if after := mustScore(t, tr, pat); after-before != cost {
				t.Fatalf("case %d branch %d: cost %d, Score %d − %d", c, k, cost, after, before)
			}
			if err := tr.RemoveTip(ti); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// relabel moves taxon i to row perm[i], names and rows together.
func relabel(p *alignment.Patterns, perm []int) *alignment.Patterns {
	q := *p
	q.Names, q.Data = make([]string, p.NumTaxa), make([][]byte, p.NumTaxa)
	for i, j := range perm {
		q.Names[j], q.Data[j] = p.Names[i], p.Data[i]
	}
	return &q
}

// columns returns p's patterns idx[0], idx[1], ... with weights scaled by
// scale.
func columns(p *alignment.Patterns, idx []int, scale int) *alignment.Patterns {
	q := *p
	q.Data, q.Weights, q.NumSites = make([][]byte, p.NumTaxa), make([]int, len(idx)), 0
	for i := range q.Data {
		q.Data[i] = make([]byte, len(idx))
		for k, j := range idx {
			q.Data[i][k] = p.Data[i][j]
		}
	}
	for k, j := range idx {
		q.Weights[k] = scale * p.Weights[j]
		q.NumSites += q.Weights[k]
	}
	return &q
}

// TestScoreMetamorphic: Score is invariant under taxon relabelling and
// pattern permutation, doubles with every weight, and does not see the
// patterns the layout drops (weight 0, or a state common to every taxon).
func TestScoreMetamorphic(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for c := 0; c < 40; c++ {
		pat := randomPatterns(rng, 3+rng.Intn(40), 1+rng.Intn(200), c%2 == 1)
		tr := treegen.Phylo2Vec(pat.Names, rng)
		ref := mustScore(t, tr, pat)

		perm := rng.Perm(pat.NumTaxa)
		rp := relabel(pat, perm)
		rt := tr.Clone()
		if err := rt.AlignTaxa(rp.Names); err != nil {
			t.Fatal(err)
		}
		if got := mustScore(t, rt, rp); got != ref {
			t.Fatalf("case %d: relabelled score %d, want %d", c, got, ref)
		}
		if got := mustScore(t, tr, columns(pat, rng.Perm(pat.NumPatterns()), 1)); got != ref {
			t.Fatalf("case %d: permuted patterns score %d, want %d", c, got, ref)
		}
		identity := make([]int, pat.NumPatterns())
		for i := range identity {
			identity[i] = i
		}
		if got := mustScore(t, tr, columns(pat, identity, 2)); got != 2*ref {
			t.Fatalf("case %d: doubled weights score %d, want %d", c, got, 2*ref)
		}
		if got := mustScore(t, tr, pat.Drawn()); got != ref {
			t.Fatalf("case %d: drawn patterns score %d, want %d", c, got, ref)
		}
		// Every column once more, with a state common to all taxa added.
		common := columns(pat, append(identity, identity...), 1)
		for i := range common.Data {
			for j := pat.NumPatterns(); j < common.NumPatterns(); j++ {
				common.Data[i][j] |= 1 << (j % 4)
			}
		}
		if got := mustScore(t, tr, common); got != ref {
			t.Fatalf("case %d: score with common-state columns %d, want %d", c, got, ref)
		}
	}
}

// TestBitSetsLayout: the layout keeps only patterns that can cost, packs a
// weight group 64 to a word, heaviest group first, and pads with all-ones.
func TestBitSetsLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	pat := randomPatterns(rng, 6, 140, false)
	for j := range pat.Weights {
		for i := range pat.Data {
			pat.Data[i][j] = byte(1) << (i % 4) // no common state
		}
		switch {
		case j < 3:
			pat.Weights[j] = 2
		case j < 10:
			pat.Weights[j] = 0
		case j < 20:
			for i := range pat.Data { // T in every taxon's set: dropped
				pat.Data[i][j] |= bio.BitT
			}
		}
	}
	bs := newBitSets(pat) // 3 of weight 2, 120 of weight 1
	if want := []int{2, 1, 1}; !slices.Equal(bs.wt, want) {
		t.Fatalf("word weights %v, want %v", bs.wt, want)
	}
	if got := bs.tip(0)[4*2]; got>>56 != 0xff {
		t.Errorf("padding of the last word %#x, want all-ones past bit 56", got)
	}
}

// TestStepwiseNoAllocPerCandidate: scoring every candidate of a step — both
// passes included — allocates nothing.
func TestStepwiseNoAllocPerCandidate(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pat := randomPatterns(rng, 40, 300, true)
	tr := treegen.Phylo2Vec(pat.Names, rng)
	if err := tr.RemoveTip(17); err != nil {
		t.Fatal(err)
	}
	s := newScorer(pat)
	if a := testing.AllocsPerRun(20, func() { s.stepwiseBest(tr, 17, rng) }); a != 0 {
		t.Errorf("a step over %d candidates allocated %.1f times", 2*pat.NumTaxa-5, a)
	}
}

// BenchmarkStepwise times one start tree, incremental and naive, on the
// shapes of DESIGN.md "A job's start-up": campaign20's 20 × 500, 42_SC,
// wide24's 24 × 10 000 and 150 × 1 000.
func BenchmarkStepwise(b *testing.B) {
	c20 := seqsim.Params42SC()
	c20.Taxa, c20.Sites = 20, 500
	shapes := []struct {
		name string
		p    seqsim.Params
	}{
		{"20x500", c20},
		{"42sc", seqsim.Params{}},
		{"wide24", seqsim.Params{Taxa: 24, Sites: 10000, MeanBranch: 0.1, Alpha: 0.8, InvariantFraction: 0.1}},
		{"150x1000", seqsim.Params{Taxa: 150, Sites: 1000, MeanBranch: 0.05, Alpha: 0.8, InvariantFraction: 0.4}},
	}
	for _, sh := range shapes {
		var pat *alignment.Patterns
		if sh.p.Taxa == 0 {
			pat = load42SC(b)
		} else {
			a, _, err := seqsim.Generate(sh.p, seqsim.DefaultModel(), rand.New(rand.NewSource(1)))
			if err != nil {
				b.Fatal(err)
			}
			pat = alignment.Compress(a)
		}
		for _, impl := range []struct {
			name  string
			build func(*alignment.Patterns, *rand.Rand) (*phylotree.Tree, error)
		}{{"bitsliced", BuildStepwise}, {"naive", naiveStepwise}} {
			b.Run(fmt.Sprintf("%s/%s", sh.name, impl.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := impl.build(pat, rand.New(rand.NewSource(int64(i)))); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(pat.NumPatterns()), "patterns")
				b.ReportMetric(float64(newBitSets(pat).nw), "words")
			})
		}
	}
}
