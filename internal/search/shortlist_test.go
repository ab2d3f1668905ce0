package search

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/model"
	"raxmlcell/internal/phylotree"
	"raxmlcell/internal/seqsim"
)

// randomStartSearch runs the search the benchmark's search20 workloads run —
// default radius and rounds, alpha refitted — from a random topology.
func randomStartSearch(t *testing.T, pat *alignment.Patterns, m *model.Model, seed int64, maxRounds int) (*Result, likelihood.Meter) {
	t.Helper()
	start, err := phylotree.RandomTopology(pat.Names, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := likelihood.NewEngine(pat, m, likelihood.Config{})
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.MaxRounds = maxRounds
	res, err := Run(eng, start, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res, eng.Meter
}

// shortListOutcomes walks one SPR round from a smoothed random topology the
// way sprRound does, every candidate solved and the exhaustive winner
// accepted, and counts for every prune that accepts a move what a search
// solving only the short list would have done there: found the same winner,
// accepted another improving candidate, or found nothing to accept.
func shortListOutcomes(t *testing.T, pat *alignment.Patterns, m *model.Model, seed int64) (winner, other, lost int) {
	t.Helper()
	tr, err := phylotree.RandomTopology(pat.Names, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := likelihood.NewEngine(pat, m, likelihood.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng.AttachTree(tr)
	opt := DefaultOptions()
	current, err := SmoothBranches(eng, tr, opt.SmoothPasses, opt.Epsilon)
	if err != nil {
		t.Fatal(err)
	}
	sc := newSearchCtx(eng, Options{})
	var list []int
	for _, p := range pruneCandidates(tr) {
		if p.Back == nil || p.Next == nil {
			continue
		}
		ps, err := tr.Prune(p)
		if err != nil {
			continue
		}
		sc.cands, sc.parents = phylotree.RadiusEdgesInto(sc.cands[:0], sc.parents[:0], ps.Q, opt.Radius)
		sc.cands, sc.parents = phylotree.RadiusEdgesInto(sc.cands, sc.parents, ps.R, opt.Radius)
		scores, err := sc.scoreInsertions(eng, sc.cands, sc.parents, ps, ps.P.Z, current)
		if err != nil {
			t.Fatal(err)
		}
		best, bestZ, bestLL := bestCandidate(scores, ps.P.Z)
		if best < 0 || bestLL <= current+opt.Epsilon {
			if err := tr.Undo(ps); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if len(scores) > shortListLen {
			list = shortList(scores, list[:0], current, sc.cutoff)
			switch {
			case slices.Contains(list, best):
				winner++
			case slices.ContainsFunc(list, func(i int) bool { return scores[i].ll > current+opt.Epsilon }):
				other++
			default:
				lost++
			}
		} else {
			winner++
		}
		if err := tr.Regraft(ps, sc.cands[best]); err != nil {
			t.Fatal(err)
		}
		ps.P.SetZ(bestZ)
		eng.Invalidate(ps.P)
		for _, b := range [...]*phylotree.Node{ps.P, ps.P.Next, ps.P.Next.Next} {
			if _, current, err = eng.MakeNewz(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	return winner, other, lost
}

// TestShortListNoWorseThanExhaustive is the gate a search that is not
// bit-identical with its parent passes through: random-start searches that
// solve only the short list of every prune end, on average, no lower than
// the same searches solving every candidate — the parent's scoring — by more
// than 0.05 logL, none ends more than 2e-3·|logL| below its exhaustive twin,
// and they take at most two fifths of the Newton iterations. Both twins walk
// the whole radius (fullWalk), so that the short list is judged alone; the
// cutoff has its own gate, TestCutoffNoWorseThanFullWalk. On a simulated
// 20 x 250 alignment (the benchmark's search workloads) and on 42_SC. The
// difference between twins is two-sided — a third of them end in a
// neighbouring local optimum, up to 0.67 logL away in either direction — so
// the mean of 24 moves by 0.03 per net flip: four alignments read -0.044,
// +0.001 (this one), +0.028 and -0.000. A short list that lost moves it
// should have made would show as several units.
func TestShortListNoWorseThanExhaustive(t *testing.T) {
	if testing.Short() {
		t.Skip("56 full SPR searches")
	}
	fullWalk = true
	defer func() { solveAll, fullWalk = false, false }()
	a, _, err := seqsim.Generate(seqsim.Params{Taxa: 20, Sites: 250, MeanBranch: 0.05, Alpha: 0.7, InvariantFraction: 0.4},
		seqsim.DefaultModel(), rand.New(rand.NewSource(2301)))
	if err != nil {
		t.Fatal(err)
	}
	for _, data := range []struct {
		name      string
		pat       *alignment.Patterns
		searches  int
		maxRounds int
	}{
		{"20 x 250", alignment.Compress(a), 24, 10},
		{"42_SC", load42SC(t), 4, 3},
	} {
		var sumShort, sumAll float64
		var itShort, itAll uint64
		winner, other, lost, differ := 0, 0, 0, 0
		for i := 0; i < data.searches; i++ {
			seed := int64(2310 + i)
			solveAll = false
			short, mShort := randomStartSearch(t, data.pat, seqsim.DefaultModel(), seed, data.maxRounds)
			solveAll = true
			all, mAll := randomStartSearch(t, data.pat, seqsim.DefaultModel(), seed, data.maxRounds)
			w, o, l := shortListOutcomes(t, data.pat, seqsim.DefaultModel(), seed)
			winner, other, lost = winner+w, other+o, lost+l

			sumShort, sumAll = sumShort+short.LogL, sumAll+all.LogL
			itShort, itAll = itShort+mShort.NewtonIters, itAll+mAll.NewtonIters
			if short.LogL != all.LogL {
				differ++
			}
			if short.LogL < all.LogL-2e-3*math.Abs(all.LogL) {
				t.Errorf("%s, seed %d: short-list search ends at %.4f, its exhaustive twin at %.4f: more than 2e-3 below",
					data.name, seed, short.LogL, all.LogL)
			}
		}
		n := float64(data.searches)
		t.Logf("%s, %d random-start searches: mean final logL %.4f with the short list, %.4f exhaustive (%d end elsewhere); Newton iterations %d against %d (x %.2f)",
			data.name, data.searches, sumShort/n, sumAll/n, differ, itShort, itAll, float64(itShort)/float64(itAll))
		t.Logf("%s, first round of each, %d accepted moves: exhaustive winner in the short list %d, another improving candidate accepted %d, nothing accepted %d",
			data.name, winner+other+lost, winner, other, lost)
		if sumShort/n < sumAll/n-0.05 {
			t.Errorf("%s: mean final logL %.4f with the short list, %.4f exhaustive: more than 0.05 lower", data.name, sumShort/n, sumAll/n)
		}
		if float64(itShort) > 0.4*float64(itAll) {
			t.Errorf("%s: %d Newton iterations with the short list, %d exhaustive: more than 0.4 of them", data.name, itShort, itAll)
		}
	}
}
