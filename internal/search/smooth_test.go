package search

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/bio"
	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/phylotree"
	"raxmlcell/internal/phylotree/treegen"
	"raxmlcell/internal/seqsim"
)

// TestSmoothingToleranceNoWorse is the gate of the length-only smoothing
// solve, which is not bit-identical with its parent: every branch stops at
// eps/n where it ran to newtonGainTol. Against exactSmoothing, from the same
// inputs: six fits of the wide24 shape (24 x 10 000, parsimony start tree,
// four smoothing passes and an alpha fit), sixteen random-start 20 x 250
// searches and two random-start searches on 42_SC. No input may end lower
// than its twin by more than the smoothing's eps, and the mean by no more
// than 1e-3.
func TestSmoothingToleranceNoWorse(t *testing.T) {
	if testing.Short() {
		t.Skip("12 fits of 24 x 10 000 and 36 SPR searches")
	}
	if raceEnabled() {
		t.Skip("serial fits and searches: nothing for the race detector to see")
	}
	defer func() { exactSmoothing = false }()
	const eps = 0.01 // DefaultOptions().Epsilon, the smoothing's eps everywhere below
	twins := func(run func() float64) (economy, exact float64) {
		exactSmoothing = false
		economy = run()
		exactSmoothing = true
		exact = run()
		return economy, exact
	}
	report := func(name string, economy, exact []float64) {
		t.Helper()
		var sumE, sumX, worst float64
		differ := 0
		for i := range economy {
			sumE, sumX = sumE+economy[i], sumX+exact[i]
			worst = min(worst, economy[i]-exact[i])
			if economy[i] != exact[i] {
				differ++
			}
			if economy[i] < exact[i]-eps {
				t.Errorf("%s #%d: final logL %.6f, exact smoothing %.6f: more than eps lower", name, i, economy[i], exact[i])
			}
		}
		n := float64(len(economy))
		t.Logf("%s: mean final logL %.6f, exact smoothing %.6f (%+.2g; %d of %d differ, worst %+.2g)",
			name, sumE/n, sumX/n, (sumE-sumX)/n, differ, len(economy), worst)
		if sumE/n < sumX/n-1e-3 {
			t.Errorf("%s: mean final logL %.6f, exact smoothing %.6f: more than 1e-3 lower", name, sumE/n, sumX/n)
		}
	}

	var economy, exact []float64
	for i := 0; i < 6; i++ {
		rng := rand.New(rand.NewSource(int64(2920 + i)))
		a, _, err := seqsim.Generate(seqsim.Params{Taxa: 24, Sites: 10000, MeanBranch: 0.1, Alpha: 0.8, InvariantFraction: 0.1},
			seqsim.DefaultModel(), rng)
		if err != nil {
			t.Fatal(err)
		}
		pat := alignment.Compress(a)
		start, err := StartingTree(pat, "parsimony", rng)
		if err != nil {
			t.Fatal(err)
		}
		e, x := twins(func() float64 {
			eng, err := likelihood.NewEngine(pat, seqsim.DefaultModel(), likelihood.Config{})
			if err != nil {
				t.Fatal(err)
			}
			tr := start.Clone()
			if _, err := SmoothBranches(eng, tr, 4, eps); err != nil {
				t.Fatal(err)
			}
			_, ll, err := OptimizeAlpha(eng, tr, 0.02, 50, 1e-2)
			if err != nil {
				t.Fatal(err)
			}
			return ll
		})
		economy, exact = append(economy, e), append(exact, x)
	}
	report("24 x 10 000 fits", economy, exact)

	a, _, err := seqsim.Generate(seqsim.Params{Taxa: 20, Sites: 250, MeanBranch: 0.05, Alpha: 0.7, InvariantFraction: 0.4},
		seqsim.DefaultModel(), rand.New(rand.NewSource(2930)))
	if err != nil {
		t.Fatal(err)
	}
	for _, data := range []struct {
		name      string
		pat       *alignment.Patterns
		searches  int
		maxRounds int
	}{
		{"20 x 250 random-start searches", alignment.Compress(a), 16, 10},
		{"42_SC random-start searches", load42SC(t), 2, 3},
	} {
		economy, exact = economy[:0], exact[:0]
		for i := 0; i < data.searches; i++ {
			e, x := twins(func() float64 {
				res, _ := randomStartSearch(t, data.pat, seqsim.DefaultModel(), int64(2940+i), data.maxRounds)
				return res.LogL
			})
			economy, exact = append(economy, e), append(exact, x)
		}
		report(data.name, economy, exact)
	}
}

// TestSmoothingPassesNeverLowerLogL: on phylo2vec trees of 4 to 40 taxa over
// random columns — bases, ambiguity codes and gaps, random weights — from
// random branch lengths, on both backends, no smoothing pass ends below the
// log-likelihood it started from, and each pass returns the tree's
// log-likelihood at the lengths it leaves.
func TestSmoothingPassesNeverLowerLogL(t *testing.T) {
	const codes = "ACGTACGTACGTACGTRYKMN-"
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(2950 + trial)))
		nt, sites := 4+rng.Intn(37), 120+rng.Intn(400)
		names := make([]string, nt)
		seqs := make([]*bio.Sequence, nt)
		for i := range seqs {
			names[i] = fmt.Sprintf("t%02d", i)
			row := make([]byte, sites)
			if i > 0 && rng.Intn(5) == 0 {
				row = []byte(seqs[rng.Intn(i)].String())
			} else {
				for j := range row {
					row[j] = codes[rng.Intn(len(codes))]
				}
			}
			var err error
			if seqs[i], err = bio.NewSequence(names[i], string(row)); err != nil {
				t.Fatal(err)
			}
		}
		a, err := alignment.New(seqs)
		if err != nil {
			t.Fatal(err)
		}
		pat := alignment.Compress(a)
		weights := make([]int, pat.NumPatterns())
		for k := range weights {
			weights[k] = 1 + rng.Intn(3)
		}
		pat, _ = pat.WithWeights(weights)
		tr := treegen.Phylo2Vec(names, rng)
		for _, e := range tr.Edges() {
			e.SetZ([]float64{phylotree.MinBranchLength, 0.001, 0.05, 0.3, 2}[rng.Intn(5)])
		}
		for _, backend := range likelihood.Backends() {
			eng, err := likelihood.NewEngine(pat, seqsim.DefaultModel(), likelihood.Config{Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			tr := tr.Clone()
			eng.AttachTree(tr)
			before, err := eng.Evaluate(tr.Tips[0])
			if err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 4; pass++ {
				ll, err := SmoothBranches(eng, tr, 1, 0.01)
				if err != nil {
					t.Fatal(err)
				}
				at, err := eng.Evaluate(tr.Tips[0])
				if err != nil {
					t.Fatal(err)
				}
				if ll < before-1e-9*math.Abs(before) || math.Abs(at-ll) > 1e-9*math.Abs(at) {
					t.Errorf("trial %d (%s, %d taxa) pass %d: logL %.10f -> %.10f, tree evaluates to %.10f", trial, backend, nt, pass, before, ll, at)
				}
				before = ll
			}
		}
	}
}
