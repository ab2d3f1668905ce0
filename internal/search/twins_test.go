package search

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/obs"
	"raxmlcell/internal/parsimony"
	"raxmlcell/internal/phylotree"
	"raxmlcell/internal/seqsim"
)

// twinOutcome is what one side of a pair reached: its final log-likelihood,
// the candidates the radius walks reached (search.candidates_scored), those
// stage 2 solved (search.candidates_solved) and the Newton iterations; and,
// on the short-list side of the exhaustive gate, the first-round outcomes
// shortListOutcomes counts.
type twinOutcome struct {
	logL                 float64
	cands, solved, iters uint64
	winner, other, lost  int
}

func (o *twinOutcome) add(p twinOutcome) {
	o.logL += p.logL
	o.cands, o.solved, o.iters = o.cands+p.cands, o.solved+p.solved, o.iters+p.iters
	o.winner, o.other, o.lost = o.winner+p.winner, o.other+p.other, o.lost+p.lost
}

// twinPair is one input's two sides: with the rule a gate judges, and with
// its twin.
type twinPair struct{ with, twin twinOutcome }

// twinSet is one set of a gate's inputs: n of them, input i seeded seed0+i.
// prepare builds an input once and returns what runs one side of its pair.
// A pairwise set of the cutoff rows is judged pair by pair as well as as a
// whole (the other rows judge every pair); a logged one is only logged.
type twinSet struct {
	name     string
	n        int
	seed0    int64
	pairwise bool
	logged   bool
	prepare  func(t *testing.T, seed int64) func(policy) twinOutcome
}

// twinGate is one no-worse gate: the policy of the side with the rule it
// judges, the twin's, its inputs, and its judge of one set's pairs. A raceAll
// gate runs and judges every input under the race detector too.
type twinGate struct {
	name       string
	with, twin policy
	sets       []twinSet
	judge      func(t *testing.T, set twinSet, pairs []twinPair)
	raceAll    bool
}

// racePairs is how many inputs of each set a gate that is not raceAll runs
// under the race detector, where the whole table can pass go test's ten
// minutes on two loaded CPUs. Those pairs are not judged: a set's thresholds
// hold for the whole set, and the run without -race judges it.
const racePairs = 2

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.ContainsFunc(bi.Settings, func(s debug.BuildSetting) bool { return s.Key == "-race" && s.Value == "true" })
}

// twinSummary is what the judges read off a set's pairs: each side's totals,
// how many pairs end apart, the worst with-side deficit (0 when none ends
// lower), and how many pairs each side ends more than 2e-3·|logL| below the
// better of the pair.
type twinSummary struct {
	with, twin           twinOutcome
	n                    float64
	differ               int
	worst                float64
	shortWith, shortTwin int
}

func summarize(pairs []twinPair) twinSummary {
	s := twinSummary{n: float64(len(pairs))}
	for _, p := range pairs {
		s.with.add(p.with)
		s.twin.add(p.twin)
		w, x := p.with.logL, p.twin.logL
		if w != x {
			s.differ++
		}
		s.worst = math.Min(s.worst, w-x)
		best := math.Max(w, x)
		if w < best-2e-3*math.Abs(best) {
			s.shortWith++
		}
		if x < best-2e-3*math.Abs(best) {
			s.shortTwin++
		}
	}
	return s
}

// twinSearch runs the default search under pol, at most maxRounds rounds,
// from a clone of start.
func twinSearch(t *testing.T, pat *alignment.Patterns, start *phylotree.Tree, maxRounds int, pol policy) twinOutcome {
	t.Helper()
	eng, err := likelihood.NewEngine(pat, seqsim.DefaultModel(), likelihood.Config{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	opt := DefaultOptions()
	opt.MaxRounds, opt.Metrics, opt.policy = maxRounds, reg, pol
	res, err := Run(eng, start.Clone(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return twinOutcome{
		logL:   res.LogL,
		cands:  reg.Counter("search.candidates_scored").Value(),
		solved: reg.Counter("search.candidates_solved").Value(),
		iters:  eng.Meter.NewtonIters,
	}
}

func randomStart(t *testing.T, pat *alignment.Patterns, seed int64) *phylotree.Tree {
	tr, err := phylotree.RandomTopology(pat.Names, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func parsimonyStart(t *testing.T, pat *alignment.Patterns, seed int64) *phylotree.Tree {
	tr, err := parsimony.BuildStepwise(pat, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// searches is a set of n searches of pat, at most maxRounds rounds each, the
// one of seed started by start(pat, seed).
func searches(name string, pat *alignment.Patterns, start func(*testing.T, *alignment.Patterns, int64) *phylotree.Tree, n int, seed0 int64, maxRounds int) twinSet {
	return twinSet{name: name, n: n, seed0: seed0, prepare: func(t *testing.T, seed int64) func(policy) twinOutcome {
		tr := start(t, pat, seed)
		return func(pol policy) twinOutcome { return twinSearch(t, pat, tr, maxRounds, pol) }
	}}
}

// simulated20x250 is a 20 x 250 alignment of the shape of the benchmark's
// search workloads.
func simulated20x250(t *testing.T, seed int64) *alignment.Patterns {
	a, _, err := seqsim.Generate(seqsim.Params{Taxa: 20, Sites: 250, MeanBranch: 0.05, Alpha: 0.7, InvariantFraction: 0.4},
		seqsim.DefaultModel(), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return alignment.Compress(a)
}

// shortListOutcomes walks one SPR round from a smoothed random topology the
// way sprRound does, every candidate solved (policy.solveAll) and the
// exhaustive winner accepted, and counts for every prune that accepts a move
// what a search solving only the short list would have done there: found the
// same winner, accepted another improving candidate, or found nothing to
// accept.
func shortListOutcomes(t *testing.T, pat *alignment.Patterns, seed int64) (winner, other, lost int) {
	t.Helper()
	tr := randomStart(t, pat, seed)
	eng, err := likelihood.NewEngine(pat, seqsim.DefaultModel(), likelihood.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng.AttachTree(tr)
	opt := DefaultOptions()
	current, err := SmoothBranches(eng, tr, opt.SmoothPasses, opt.Epsilon)
	if err != nil {
		t.Fatal(err)
	}
	sc := newSearchCtx(eng, Options{policy: policy{solveAll: true}})
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
		ps.P.SetZ(bestZ)
		if err := tr.Regraft(ps, sc.cands[best]); err != nil {
			t.Fatal(err)
		}
		for _, b := range [...]*phylotree.Node{ps.P, ps.P.Next, ps.P.Next.Next} {
			if _, current, err = eng.MakeNewz(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	return winner, other, lost
}

// TestTwinGates holds the gates a change that moves the search's trajectory
// passes through: each runs every input twice, once as the search runs and
// once with the rule it judges switched off (the twin), and judges each set
// of inputs once all of its pairs have run. Every pair is a parallel subtest.
// Under the race detector the exhaustive gate runs whole, as it always has,
// and the others their first racePairs inputs of each set.
func TestTwinGates(t *testing.T) {
	if testing.Short() {
		t.Skip("about 380 SPR searches and 12 fits of 24 x 10 000")
	}
	sim, sc42, sim2930 := simulated20x250(t, 2301), load42SC(t), simulated20x250(t, 2930)
	const eps = 0.01 // DefaultOptions().Epsilon, the smoothing's eps everywhere
	gates := []twinGate{
		// The likelihood cutoff, each search paired with its full-walk twin
		// from the same start: 48 random-start searches of a simulated
		// 20 x 250 alignment (the benchmark's search workloads) and 16
		// parsimony-start searches of 42_SC. On each set the mean final logL
		// is no more than 0.05 below the twins', the walks reach at most 0.6
		// of the twins' candidates, and no more searches than with the full
		// walk end more than 2e-3·|logL| below the better of the pair (a
		// random start can stop in a poor local optimum either way); on 42_SC
		// no search ends more than 1e-3·|logL| below its twin. Sixteen
		// random-start 42_SC pairs are logged, not gated: there one search in
		// 64 was measured to end 124.6 logL (2.4 %) below its twin.
		{
			name: "CutoffNoWorseThanFullWalk",
			twin: policy{fullWalk: true},
			sets: []twinSet{
				searches("20 x 250, random starts", sim, randomStart, 48, 2700, 10),
				pairwise(searches("42_SC, parsimony starts", sc42, parsimonyStart, 16, 2700, 10)),
				logged(searches("42_SC, random starts", sc42, randomStart, 16, 2700, 10)),
			},
			judge: func(t *testing.T, set twinSet, pairs []twinPair) {
				for i, p := range pairs {
					if set.pairwise && p.with.logL < p.twin.logL-1e-3*math.Abs(p.twin.logL) {
						t.Errorf("%s, seed %d: ends at %.4f with the cutoff, its full-walk twin at %.4f: more than 1e-3 below",
							set.name, set.seed0+int64(i), p.with.logL, p.twin.logL)
					}
				}
				s := summarize(pairs)
				ratio := float64(s.with.cands) / float64(s.twin.cands)
				t.Logf("%s, %d searches: mean final logL %.4f with the cutoff, %.4f full walk (%d end elsewhere, worst %.4f); more than 2e-3 below the pair's better %d against %d; candidates %d against %d (x %.2f)",
					set.name, set.n, s.with.logL/s.n, s.twin.logL/s.n, s.differ, s.worst, s.shortWith, s.shortTwin, s.with.cands, s.twin.cands, ratio)
				if set.logged {
					return
				}
				if s.with.logL/s.n < s.twin.logL/s.n-0.05 {
					t.Errorf("%s: mean final logL %.4f with the cutoff, %.4f full walk: more than 0.05 lower", set.name, s.with.logL/s.n, s.twin.logL/s.n)
				}
				if s.shortWith > s.shortTwin {
					t.Errorf("%s: %d searches end more than 2e-3 below the better twin with the cutoff, %d with the full walk", set.name, s.shortWith, s.shortTwin)
				}
				if ratio > 0.6 {
					t.Errorf("%s: the walks reach %d candidates with the cutoff, %d without: more than 0.6 of them", set.name, s.with.cands, s.twin.cands)
				}
			},
		},
		// The cutoff's second use — no Newton solve for a prescore that lost
		// it — each search paired with its twin from the same start that
		// still lists such prescores: 48 random-start searches of the
		// simulated 20 x 250 alignment and 16 parsimony-start searches of
		// 42_SC. On each set the mean final logL is no more than 0.05 below
		// the twins', no more searches than the twins' end more than
		// 2e-3·|logL| below the better of the pair, and the searches make at
		// most 0.9 of the twins' solves, so the gate fails with the rule
		// switched off; on 42_SC no search ends more than 1e-3·|logL| below
		// its twin.
		{
			name: "ShortListCutoffNoWorse",
			twin: policy{uncutList: true},
			sets: []twinSet{
				searches("20 x 250, random starts", sim, randomStart, 48, 3100, 10),
				pairwise(searches("42_SC, parsimony starts", sc42, parsimonyStart, 16, 3100, 10)),
			},
			judge: func(t *testing.T, set twinSet, pairs []twinPair) {
				for i, p := range pairs {
					if set.pairwise && p.with.logL < p.twin.logL-1e-3*math.Abs(p.twin.logL) {
						t.Errorf("%s, seed %d: ends at %.4f with the cut short list, its twin at %.4f: more than 1e-3 below",
							set.name, set.seed0+int64(i), p.with.logL, p.twin.logL)
					}
				}
				s := summarize(pairs)
				ratio := float64(s.with.solved) / float64(s.twin.solved)
				t.Logf("%s, %d searches: mean final logL %.4f with the cut short list, %.4f without (%d end elsewhere, worst %.4f); more than 2e-3 below the pair's better %d against %d; solves %d against %d (x %.2f)",
					set.name, set.n, s.with.logL/s.n, s.twin.logL/s.n, s.differ, s.worst, s.shortWith, s.shortTwin, s.with.solved, s.twin.solved, ratio)
				if s.with.logL/s.n < s.twin.logL/s.n-0.05 {
					t.Errorf("%s: mean final logL %.4f with the cut short list, %.4f without: more than 0.05 lower", set.name, s.with.logL/s.n, s.twin.logL/s.n)
				}
				if s.shortWith > s.shortTwin {
					t.Errorf("%s: %d searches end more than 2e-3 below the better twin with the cut short list, %d without", set.name, s.shortWith, s.shortTwin)
				}
				if ratio > 0.9 {
					t.Errorf("%s: %d solves with the cut short list, %d without: more than 0.9 of them", set.name, s.with.solved, s.twin.solved)
				}
			},
		},
		// The short list: random-start searches that solve only the short
		// list of every prune end, on average, no lower than the same searches
		// solving every candidate — the parent's scoring — by more than 0.05
		// logL, none ends more than 2e-3·|logL| below its exhaustive twin, and
		// they take at most two fifths of the Newton iterations. Both sides
		// walk the whole radius, so that the short list is judged alone. On
		// the simulated 20 x 250 alignment and on 42_SC. The difference
		// between twins is two-sided — a third of them end in a neighbouring
		// local optimum, up to 0.67 logL away in either direction — so the
		// mean of 24 moves by 0.03 per net flip: four alignments read -0.044,
		// +0.001 (this one), +0.028 and -0.000. A short list that lost moves
		// it should have made would show as several units.
		{
			name:    "ShortListNoWorseThanExhaustive",
			with:    policy{fullWalk: true},
			twin:    policy{fullWalk: true, solveAll: true},
			raceAll: true,
			sets: []twinSet{
				exhaustive("20 x 250", sim, 24, 10),
				exhaustive("42_SC", sc42, 4, 3),
			},
			judge: func(t *testing.T, set twinSet, pairs []twinPair) {
				for i, p := range pairs {
					if p.with.logL < p.twin.logL-2e-3*math.Abs(p.twin.logL) {
						t.Errorf("%s, seed %d: short-list search ends at %.4f, its exhaustive twin at %.4f: more than 2e-3 below",
							set.name, set.seed0+int64(i), p.with.logL, p.twin.logL)
					}
				}
				s := summarize(pairs)
				t.Logf("%s, %d random-start searches: mean final logL %.4f with the short list, %.4f exhaustive (%d end elsewhere); Newton iterations %d against %d (x %.2f)",
					set.name, set.n, s.with.logL/s.n, s.twin.logL/s.n, s.differ, s.with.iters, s.twin.iters, float64(s.with.iters)/float64(s.twin.iters))
				t.Logf("%s, first round of each, %d accepted moves: exhaustive winner in the short list %d, another improving candidate accepted %d, nothing accepted %d",
					set.name, s.with.winner+s.with.other+s.with.lost, s.with.winner, s.with.other, s.with.lost)
				if s.with.logL/s.n < s.twin.logL/s.n-0.05 {
					t.Errorf("%s: mean final logL %.4f with the short list, %.4f exhaustive: more than 0.05 lower", set.name, s.with.logL/s.n, s.twin.logL/s.n)
				}
				if float64(s.with.iters) > 0.4*float64(s.twin.iters) {
					t.Errorf("%s: %d Newton iterations with the short list, %d exhaustive: more than 0.4 of them", set.name, s.with.iters, s.twin.iters)
				}
			},
		},
		// The length-only smoothing solve: every branch stops at eps/n where
		// it ran to newtonGainTol. From the same inputs: six fits of the
		// wide24 shape (24 x 10 000, parsimony start tree, four smoothing
		// passes and an alpha fit), sixteen random-start 20 x 250 searches and
		// two random-start searches on 42_SC. No input may end lower than its
		// twin by more than the smoothing's eps, and the mean by no more than
		// 1e-3.
		{
			name: "SmoothingToleranceNoWorse",
			twin: policy{exactSmoothing: true},
			sets: []twinSet{
				{name: "24 x 10 000 fits", n: 6, seed0: 2920, prepare: wideFit(eps)},
				searches("20 x 250 random-start searches", sim2930, randomStart, 16, 2940, 10),
				searches("42_SC random-start searches", sc42, randomStart, 2, 2940, 3),
			},
			judge: func(t *testing.T, set twinSet, pairs []twinPair) {
				for i, p := range pairs {
					if p.with.logL < p.twin.logL-eps {
						t.Errorf("%s #%d: final logL %.6f, exact smoothing %.6f: more than eps lower", set.name, i, p.with.logL, p.twin.logL)
					}
				}
				s := summarize(pairs)
				t.Logf("%s: mean final logL %.6f, exact smoothing %.6f (%+.2g; %d of %d differ, worst %+.2g)",
					set.name, s.with.logL/s.n, s.twin.logL/s.n, (s.with.logL-s.twin.logL)/s.n, s.differ, set.n, s.worst)
				if s.with.logL/s.n < s.twin.logL/s.n-1e-3 {
					t.Errorf("%s: mean final logL %.6f, exact smoothing %.6f: more than 1e-3 lower", set.name, s.with.logL/s.n, s.twin.logL/s.n)
				}
			},
		},
	}
	for _, g := range gates {
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			prefix := raceEnabled() && !g.raceAll
			pairs := make([][]twinPair, len(g.sets))
			ok := t.Run("pairs", func(t *testing.T) {
				for k, set := range g.sets {
					n := set.n
					if prefix {
						n = min(n, racePairs)
					}
					pairs[k] = make([]twinPair, n)
					for i := range pairs[k] {
						seed := set.seed0 + int64(i)
						t.Run(fmt.Sprintf("%s, seed %d", set.name, seed), func(t *testing.T) {
							t.Parallel()
							side := set.prepare(t, seed)
							pairs[k][i] = twinPair{side(g.with), side(g.twin)}
						})
					}
				}
			})
			if !ok || prefix {
				return
			}
			for k, set := range g.sets {
				g.judge(t, set, pairs[k])
			}
		})
	}
}

func pairwise(s twinSet) twinSet { s.pairwise = true; return s }

func logged(s twinSet) twinSet { s.logged = true; return s }

// exhaustive is a set of n random-start searches of pat, at most maxRounds
// rounds each, seeded from 2310; the short-list side also counts its
// shortListOutcomes.
func exhaustive(name string, pat *alignment.Patterns, n, maxRounds int) twinSet {
	set := searches(name, pat, randomStart, n, 2310, maxRounds)
	search := set.prepare
	set.prepare = func(t *testing.T, seed int64) func(policy) twinOutcome {
		side := search(t, seed)
		return func(pol policy) twinOutcome {
			o := side(pol)
			if !pol.solveAll {
				o.winner, o.other, o.lost = shortListOutcomes(t, pat, seed)
			}
			return o
		}
	}
	return set
}

// wideFit prepares a fit of the wide24 shape: a simulated 24 x 10 000
// alignment and a parsimony start tree drawn from one generator, then four
// smoothing passes at eps and an alpha fit.
func wideFit(eps float64) func(*testing.T, int64) func(policy) twinOutcome {
	return func(t *testing.T, seed int64) func(policy) twinOutcome {
		rng := rand.New(rand.NewSource(seed))
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
		return func(pol policy) twinOutcome {
			eng, err := likelihood.NewEngine(pat, seqsim.DefaultModel(), likelihood.Config{})
			if err != nil {
				t.Fatal(err)
			}
			tr := start.Clone()
			if _, err := smoothBranches(context.Background(), eng, tr, 4, eps, pol); err != nil {
				t.Fatal(err)
			}
			_, ll, err := OptimizeAlpha(eng, tr, 0.02, 50, 1e-2)
			if err != nil {
				t.Fatal(err)
			}
			return twinOutcome{logL: ll}
		}
	}
}
