package search

import (
	"math/rand"
	"testing"

	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/parsimony"
	"raxmlcell/internal/phylotree"
	"raxmlcell/internal/seqsim"
)

// pruneScoringAllocs is what one prune of an SPR round allocates — the
// Prune, the radius walk, both stages of scoreInsertions and the Undo that
// ends it — once the search context's buffers have grown: the
// PrunedSubtree record Prune hands out, whatever the number of candidates.
const pruneScoringAllocs = 1

// TestPruneScoringAllocs: the prune of 42_SC with the most candidates,
// scored at radius 1 and at radius 10, a few candidates and dozens,
// allocates pruneScoringAllocs times each, with the round's cutoff in force
// and with policy.solveAll solving every candidate.
func TestPruneScoringAllocs(t *testing.T) {
	pat := load42SC(t)
	tr, err := parsimony.BuildStepwise(pat, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := likelihood.NewEngine(pat, seqsim.DefaultModel(), likelihood.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng.AttachTree(tr)
	ll, err := SmoothBranches(eng, tr, 1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	sc := newSearchCtx(eng, Options{})
	var p *phylotree.Node
	most := 0
	for _, q := range pruneCandidates(tr) {
		ps, err := tr.Prune(q)
		if err != nil {
			t.Fatal(err)
		}
		cands, _ := phylotree.RadiusEdgesInto(nil, nil, ps.Q, 10)
		cands, _ = phylotree.RadiusEdgesInto(cands, nil, ps.R, 10)
		if err := tr.Undo(ps); err != nil {
			t.Fatal(err)
		}
		if len(cands) > most {
			p, most = q, len(cands)
		}
	}
	for _, pol := range []policy{{}, {solveAll: true}} {
		sc.pol = pol
		sc.startRound(ll)
		for _, radius := range []int{1, 10} {
			n := testing.AllocsPerRun(10, func() {
				ps, err := tr.Prune(p)
				if err != nil {
					t.Fatal(err)
				}
				sc.cands, sc.parents = phylotree.RadiusEdgesInto(sc.cands[:0], sc.parents[:0], ps.Q, radius)
				sc.cands, sc.parents = phylotree.RadiusEdgesInto(sc.cands, sc.parents, ps.R, radius)
				if _, err := sc.scoreInsertions(eng, sc.cands, sc.parents, ps, ps.P.Z, ll); err != nil {
					t.Fatal(err)
				}
				if err := tr.Undo(ps); err != nil {
					t.Fatal(err)
				}
			})
			if n != pruneScoringAllocs {
				t.Errorf("%+v, radius %d (%d candidates): a prune allocates %v times, want %d",
					pol, radius, len(sc.cands), n, pruneScoringAllocs)
			}
		}
	}
}

// TestBrentMaxDoesNotAllocate: brentMax's bookkeeping is a handful of
// floats; on an objective that allocates nothing, a maximisation of many
// iterations allocates nothing either.
func TestBrentMaxDoesNotAllocate(t *testing.T) {
	f := func(x float64) (float64, error) { return -(x - 1.3) * (x - 1.3) * (x + 2), nil }
	fx, _ := f(0.1)
	if n := testing.AllocsPerRun(100, func() {
		if _, _, _, err := brentMax(f, 0, 5, 0.1, fx, 1e-9); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("brentMax allocates %v times per call", n)
	}
}
