package search

import (
	"cmp"
	"errors"
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

// TestCutoffRule walks a hand-built radius walk through stage 1 with given
// prescores: a candidate that loses the cutoff or more against the baseline
// keeps every candidate below it out of the walk, one that loses less or
// gains does not; round 1's cutoff is |logL|/1000 of its starting tree, the
// next round's the mean of the losses the first recorded, and a round after
// one that recorded none falls back to |logL|/1000. The short list takes the
// same test: a prescore that lost exactly the cutoff is not listed, one that
// lost a hair less is, and the whole list comes back with uncutList and under
// fullWalk's +Inf. In two rounds of scoring every prune of the smoothed 42_SC
// tree, each at its own cutoff, every prune solves exactly the short list
// listOf recomputes from its scores, the cutoff keeps some candidate out of
// stage 1 and shortens some list; a prune whose prescores all lost the
// cutoff solves none, accepts nothing and Undo gives back the tree to the
// bit, while solveAll and fullWalk still solve the whole list there.
func TestCutoffRule(t *testing.T) {
	const baseline = -5000.0
	// Two walks from the prune; parents index the walk, -1 at the prune.
	parents := []int{-1, 0, 1, 1, 0, 4, 5, -1, 7, 8}
	loss := []float64{
		1,    // 0: kept
		10,   // 1: cut, so 2 and 3 are never reached
		0, 0, // 2, 3
		-2,  // 4: gains, kept
		5,   // 5: loses exactly the cutoff: cut, so 6 is never reached
		0,   // 6
		4.5, // 7: kept
		7,   // 8: cut at depth 2, so 9 is never reached
		0,   // 9
	}
	cands := make([]*phylotree.Node, len(parents))
	for i := range cands {
		cands[i] = &phylotree.Node{Back: &phylotree.Node{}}
	}
	sc := &searchCtx{scores: make([]candScore, len(cands))}

	sc.startRound(baseline)
	if sc.cutoff != 5 {
		t.Fatalf("round 1 cutoff %v, want |logL|/1000 = 5", sc.cutoff)
	}
	var order []int
	sc.prescoreWalk(cands, parents, baseline, func(i int) {
		order = append(order, i)
		sc.scores[i].prescored(baseline-loss[i], nil)
	})
	// In candidate order: each reached candidate's parent comes before it.
	if want := []int{0, 1, 4, 5, 7, 8}; !slices.Equal(order, want) {
		t.Errorf("prescored %v, want %v", order, want)
	}
	if sc.losses != 5 || sc.lossSum != 1+10+5+4.5+7 {
		t.Errorf("round's losses %d summing to %v, want 5 summing to %v", sc.losses, sc.lossSum, 1+10+5+4.5+7)
	}

	sc.startRound(-1234)
	if want := (1 + 10 + 5 + 4.5 + 7) / 5; sc.cutoff != want {
		t.Errorf("round 2 cutoff %v, want round 1's mean loss %v", sc.cutoff, want)
	}
	if sc.losses != 0 || sc.lossSum != 0 {
		t.Errorf("round 2 starts with %d losses summing to %v", sc.losses, sc.lossSum)
	}
	// A round in which nothing loses: the next falls back to |logL|/1000.
	for i := range sc.scores {
		sc.scores[i] = candScore{}
	}
	sc.prescoreWalk(cands, parents, baseline, func(i int) {
		sc.scores[i].prescored(baseline+1, nil)
	})
	for i := range sc.scores {
		if !sc.scores[i].scored {
			t.Errorf("candidate %d not reached in a round where every prescore gains", i)
		}
	}
	sc.startRound(-2000)
	if sc.cutoff != 2 {
		t.Errorf("cutoff after a round without a loss %v, want |logL|/1000 = 2", sc.cutoff)
	}
	fullWalk = true
	defer func() { fullWalk = false }()
	if sc.startRound(-2000); !math.IsInf(sc.cutoff, 1) {
		t.Errorf("full walk: cutoff %v, want +Inf", sc.cutoff)
	}

	// The short list: 0 and 3 lose exactly the cutoff, 1 more, 2 a hair less.
	pre := func(v float64) candScore { return candScore{pre: v, scored: true} }
	under := math.Nextafter(baseline-5, 0)
	if loss := baseline - under; !(loss < 5) || loss < 5-1e-9 {
		t.Fatalf("prescore %v loses %v, want a hair under 5", under, loss)
	}
	listed := []candScore{pre(baseline - 5), pre(baseline - 6), pre(under), pre(baseline - 5)}
	if got := shortList(listed, nil, baseline, 5); !slices.Equal(got, []int{2}) {
		t.Errorf("short list %v at cutoff 5, want only the prescore that lost less: [2]", got)
	}
	if got := shortList(listed, nil, baseline, sc.cutoff); !slices.Equal(got, []int{0, 2, 3}) {
		t.Errorf("short list %v under the full walk's cutoff, want the three highest: [0 2 3]", got)
	}
	uncutList = true
	got := shortList(listed, nil, baseline, 5)
	uncutList = false
	if !slices.Equal(got, []int{0, 2, 3}) {
		t.Errorf("short list %v with uncutList, want the three highest: [0 2 3]", got)
	}
	fullWalk = false
	cutoffSweep42SC(t)
}

// listOf recomputes, from a prune's scores, the candidates stage 2 must
// solve: every attached one in a prune of at most shortListLen, else the
// shortListLen highest prescores, ties to the lower index, among those that
// lost less than cutoff against baseline. dropped reports whether the cutoff
// took one of the shortListLen highest prescores off the list.
func listOf(cands []*phylotree.Node, scores []candScore, baseline, cutoff float64) (list []int, dropped bool) {
	var reached []int
	for i := range scores {
		if cands[i].Back != nil {
			list = append(list, i)
		}
		if scores[i].scored && !math.IsNaN(scores[i].pre) {
			reached = append(reached, i)
		}
	}
	if len(list) <= shortListLen {
		return list, false
	}
	slices.SortStableFunc(reached, func(a, b int) int { return cmp.Compare(scores[b].pre, scores[a].pre) })
	list = list[:0]
	for rank, i := range reached {
		if baseline-scores[i].pre >= cutoff {
			dropped = dropped || rank < shortListLen
		} else if len(list) < shortListLen {
			list = append(list, i)
		}
	}
	slices.Sort(list)
	return list, dropped
}

// cutoffSweep42SC scores every prune of the smoothed 42_SC tree in two
// rounds, the second at the cutoff the first one's losses set, and checks
// that each prune solves exactly listOf's short list and that the cutoff
// kept some candidate out of stage 1 and took some off a short list. At the
// first prune of more than shortListLen candidates whose prescores all lost
// the cutoff it also checks that it solves none, that sprRound's reduction
// accepts nothing, that solveAll solves every candidate and a full walk's
// cutoff shortListLen of them, and that Undo leaves the tree's topology,
// branch-length bits and log-likelihood bits as they were.
func cutoffSweep42SC(t *testing.T) {
	t.Helper()
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
	ll, err := SmoothBranches(eng, tr, 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	state := func() (string, []uint64, float64) {
		var zs []uint64
		for _, e := range tr.Edges() {
			zs = append(zs, math.Float64bits(e.Z))
		}
		at, err := eng.Evaluate(tr.Tips[0])
		if err != nil {
			t.Fatal(err)
		}
		return tr.Newick(), zs, at
	}
	newick0, zs0, ll0 := state()
	sc := newSearchCtx(eng, Options{})
	solved := func(scores []candScore) int {
		n := 0
		for i := range scores {
			if scores[i].ok {
				n++
			}
		}
		return n
	}
	allLost, cut, dropped := false, 0, 0
	for round := 0; round < 2; round++ {
		sc.startRound(ll)
		for _, p := range pruneCandidates(tr) {
			ps, err := tr.Prune(p)
			if err != nil {
				t.Fatal(err)
			}
			sc.cands, sc.parents = phylotree.RadiusEdgesInto(sc.cands[:0], sc.parents[:0], ps.Q, 5)
			sc.cands, sc.parents = phylotree.RadiusEdgesInto(sc.cands, sc.parents, ps.R, 5)
			scores, err := sc.scoreInsertions(eng, sc.cands, sc.parents, ps, ps.P.Z, ll)
			if err != nil {
				t.Fatal(err)
			}
			var got []int
			for i := range scores {
				if scores[i].ok {
					got = append(got, i)
				}
				if !scores[i].scored {
					cut++
				}
			}
			want, short := listOf(sc.cands, scores, ll, sc.cutoff)
			if !slices.Equal(got, want) {
				t.Fatalf("round %d: solved %v, want the short list %v", round+1, got, want)
			}
			if short {
				dropped++
			}
			if allLost || len(sc.cands) <= shortListLen || len(got) > 0 {
				if err := tr.Undo(ps); err != nil {
					t.Fatal(err)
				}
				continue
			}
			allLost = true
			for i := range scores {
				if scores[i].scored && ll-scores[i].pre < sc.cutoff {
					t.Fatalf("candidate %d lost %v, less than the cutoff %v, and was not solved", i, ll-scores[i].pre, sc.cutoff)
				}
			}
			if idx, _, _ := bestCandidate(scores, ps.P.Z); idx != -1 {
				t.Errorf("nothing solved, yet bestCandidate picked %d", idx)
			}

			// The checks below rescore the prune; the round goes on with
			// the cutoff and losses it had.
			cutoff, lossSum, losses := sc.cutoff, sc.lossSum, sc.losses
			solveAll = true
			scores, err = sc.scoreInsertions(eng, sc.cands, sc.parents, ps, ps.P.Z, ll)
			solveAll = false
			if err != nil {
				t.Fatal(err)
			}
			attached := 0
			for _, c := range sc.cands {
				if c.Back != nil {
					attached++
				}
			}
			if s := solved(scores); s != attached {
				t.Errorf("solveAll: %d candidates solved, want all %d", s, attached)
			}
			fullWalk = true
			sc.startRound(ll)
			fullWalk = false
			scores, err = sc.scoreInsertions(eng, sc.cands, sc.parents, ps, ps.P.Z, ll)
			if err != nil {
				t.Fatal(err)
			}
			if s := solved(scores); s != shortListLen {
				t.Errorf("full walk: %d candidates solved, want %d", s, shortListLen)
			}
			sc.cutoff, sc.lossSum, sc.losses = cutoff, lossSum, losses

			if err := tr.Undo(ps); err != nil {
				t.Fatal(err)
			}
			newick, zs, at := state()
			if newick != newick0 || !slices.Equal(zs, zs0) || math.Float64bits(at) != math.Float64bits(ll0) {
				t.Errorf("after Undo: logL %.17g, before %.17g; topology or branch lengths moved: %v", at, ll0, newick != newick0 || !slices.Equal(zs, zs0))
			}
		}
	}
	if !allLost {
		t.Fatal("no prune of the sweep lost the cutoff at every candidate")
	}
	if cut == 0 {
		t.Error("the cutoff kept no candidate out of stage 1")
	}
	if dropped == 0 {
		t.Error("the cutoff took no candidate off a short list")
	}
	t.Logf("%d candidates kept out of stage 1, %d short lists shortened", cut, dropped)
}

// TestNonFiniteScoreNeverSteers feeds NaN and infinite scores through what
// the search does with them: each becomes the candidate's *NonFiniteError,
// and none lets the walk go below it, is averaged into the cutoff, is drawn
// into the short list or is picked by bestCandidate; a NaN cutoff or baseline
// lists nothing.
func TestNonFiniteScoreNeverSteers(t *testing.T) {
	const baseline = -100.0
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	// 0 to 5 at the prune, 6 to 8 below the three non-finite ones.
	pre := append(bad, baseline-3, baseline-4, baseline-5, baseline, baseline, baseline)
	parents := []int{-1, -1, -1, -1, -1, -1, 0, 1, 2}
	cands := make([]*phylotree.Node, len(parents))
	for i := range cands {
		cands[i] = &phylotree.Node{Back: &phylotree.Node{}}
	}
	sc := &searchCtx{scores: make([]candScore, len(cands)), cutoff: math.Inf(1)}
	sc.prescoreWalk(cands, parents, baseline, func(i int) {
		sc.scores[i].prescored(pre[i], nil)
	})
	for i, v := range bad {
		var nf *NonFiniteError
		if !errors.As(sc.scores[i].err, &nf) || nf.Stage != "prescore" {
			t.Errorf("prescore %v: error %v, want a *NonFiniteError", v, sc.scores[i].err)
		}
		if sc.scores[6+i].scored {
			t.Errorf("the walk went on below the prescore %v", v)
		}
	}
	if sc.losses != 3 || sc.lossSum != 3+4+5 {
		t.Errorf("%d losses summing to %v, want the finite 3 summing to 12", sc.losses, sc.lossSum)
	}
	if got := shortList(sc.scores, nil, baseline, sc.cutoff); !slices.Equal(got, []int{3, 4, 5}) {
		t.Errorf("short list %v, want the three finite prescores", got)
	}
	// Neither a NaN cutoff nor a NaN loss, from a prescore or a baseline,
	// keeps a candidate on the list.
	if got := shortList(sc.scores, nil, baseline, math.NaN()); len(got) != 0 {
		t.Errorf("short list %v at a NaN cutoff, want none", got)
	}
	if got := shortList(sc.scores, nil, math.NaN(), 10); len(got) != 0 {
		t.Errorf("short list %v against a NaN baseline, want none", got)
	}
	unflagged := []candScore{{pre: math.NaN(), scored: true}, {pre: baseline - 1, scored: true}}
	if got := shortList(unflagged, nil, baseline, math.Inf(1)); !slices.Equal(got, []int{1}) {
		t.Errorf("short list %v, want the NaN prescore left out even without its error: [1]", got)
	}

	solved := make([]candScore, 4)
	for i, v := range bad {
		solved[i].solved(0.1, v, nil)
		if solved[i].ok || solved[i].err == nil {
			t.Errorf("solve %v: ok %v, error %v", v, solved[i].ok, solved[i].err)
		}
	}
	solved[3].solved(0.2, -150, nil)
	if idx, z, ll := bestCandidate(solved, 0.9); idx != 3 || z != 0.2 || ll != -150 {
		t.Errorf("bestCandidate (%d, %v, %v), want the finite solve (3, 0.2, -150)", idx, z, ll)
	}
	// An error of the kernel's own passes through unchanged.
	kernelErr := errors.New("kernel")
	if err := nonFinite("solve", math.NaN(), kernelErr); err != kernelErr {
		t.Errorf("nonFinite replaced the kernel's error with %v", err)
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.ContainsFunc(bi.Settings, func(s debug.BuildSetting) bool { return s.Key == "-race" && s.Value == "true" })
}

// walkOutcome is what a search reached: its final log-likelihood, the
// candidates the radius walks reached (search.candidates_scored) and those
// stage 2 solved (search.candidates_solved).
type walkOutcome struct {
	logL   float64
	cands  uint64
	solved uint64
}

// hookTwins runs the default search from start twice, with the test hook
// *hook off and on.
func hookTwins(t *testing.T, pat *alignment.Patterns, start *phylotree.Tree, hook *bool) (off, on walkOutcome) {
	t.Helper()
	defer func() { *hook = false }()
	run := func(set bool) walkOutcome {
		*hook = set
		eng, err := likelihood.NewEngine(pat, seqsim.DefaultModel(), likelihood.Config{})
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		opt := DefaultOptions()
		opt.Metrics = reg
		res, err := Run(eng, start.Clone(), opt)
		if err != nil {
			t.Fatal(err)
		}
		return walkOutcome{res.LogL, reg.Counter("search.candidates_scored").Value(), reg.Counter("search.candidates_solved").Value()}
	}
	return run(false), run(true)
}

// cutoffTwins runs the default search from start twice, with the cutoff and
// walking the whole radius.
func cutoffTwins(t *testing.T, pat *alignment.Patterns, start *phylotree.Tree) (cut, full walkOutcome) {
	t.Helper()
	return hookTwins(t, pat, start, &fullWalk)
}

// gateStarts is the simulated 20 x 250 alignment of the benchmark's search
// workloads, 42_SC, and the two ways a gate starts a search on them.
func gateStarts(t *testing.T) (sim, sc42 *alignment.Patterns, randomStart, parsimonyStart func(*alignment.Patterns, int64) *phylotree.Tree) {
	t.Helper()
	a, _, err := seqsim.Generate(seqsim.Params{Taxa: 20, Sites: 250, MeanBranch: 0.05, Alpha: 0.7, InvariantFraction: 0.4},
		seqsim.DefaultModel(), rand.New(rand.NewSource(2301)))
	if err != nil {
		t.Fatal(err)
	}
	randomStart = func(pat *alignment.Patterns, seed int64) *phylotree.Tree {
		tr, err := phylotree.RandomTopology(pat.Names, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	parsimonyStart = func(pat *alignment.Patterns, seed int64) *phylotree.Tree {
		tr, err := parsimony.BuildStepwise(pat, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	return alignment.Compress(a), load42SC(t), randomStart, parsimonyStart
}

// TestCutoffNoWorseThanFullWalk is the gate the likelihood cutoff passes
// through, each search paired with its full-walk twin from the same start:
// 48 random-start searches of a simulated 20 x 250 alignment (the benchmark's
// search workloads) and 16 parsimony-start searches of 42_SC. On each set the
// mean final logL is no more than 0.05 below the twins', the walks reach at
// most 0.6 of the twins' candidates, and no more searches than with the full
// walk end more than 2e-3·|logL| below the better of the pair (a random start
// can stop in a poor local optimum either way); on 42_SC no search ends more
// than 1e-3·|logL| below its twin. Sixteen random-start 42_SC pairs are
// logged, not gated: there one search in 64 was measured to end 124.6 logL
// (2.4 %) below its twin.
func TestCutoffNoWorseThanFullWalk(t *testing.T) {
	if testing.Short() {
		t.Skip("160 full SPR searches")
	}
	if raceEnabled() {
		// Serial: nothing for the race detector to see, and it would take the
		// package past go test's ten minutes. go test ./... runs it.
		t.Skip("160 serial SPR searches under the race detector")
	}
	a, _, err := seqsim.Generate(seqsim.Params{Taxa: 20, Sites: 250, MeanBranch: 0.05, Alpha: 0.7, InvariantFraction: 0.4},
		seqsim.DefaultModel(), rand.New(rand.NewSource(2301)))
	if err != nil {
		t.Fatal(err)
	}
	sim, sc42 := alignment.Compress(a), load42SC(t)
	randomStart := func(pat *alignment.Patterns, seed int64) *phylotree.Tree {
		tr, err := phylotree.RandomTopology(pat.Names, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	parsimonyStart := func(pat *alignment.Patterns, seed int64) *phylotree.Tree {
		tr, err := parsimony.BuildStepwise(pat, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	for _, set := range []struct {
		name     string
		pat      *alignment.Patterns
		start    func(*alignment.Patterns, int64) *phylotree.Tree
		searches int
		gated    bool
	}{
		{"20 x 250, random starts", sim, randomStart, 48, true},
		{"42_SC, parsimony starts", sc42, parsimonyStart, 16, true},
		{"42_SC, random starts", sc42, randomStart, 16, false},
	} {
		var sumCut, sumFull float64
		var candsCut, candsFull uint64
		shortCut, shortFull, differ := 0, 0, 0
		worst := 0.0
		for i := 0; i < set.searches; i++ {
			seed := int64(2700 + i)
			cut, full := cutoffTwins(t, set.pat, set.start(set.pat, seed))
			sumCut, sumFull = sumCut+cut.logL, sumFull+full.logL
			candsCut, candsFull = candsCut+cut.cands, candsFull+full.cands
			if cut.logL != full.logL {
				differ++
			}
			worst = math.Min(worst, cut.logL-full.logL)
			best := math.Max(cut.logL, full.logL)
			if cut.logL < best-2e-3*math.Abs(best) {
				shortCut++
			}
			if full.logL < best-2e-3*math.Abs(best) {
				shortFull++
			}
			if set.pat == sc42 && set.gated && cut.logL < full.logL-1e-3*math.Abs(full.logL) {
				t.Errorf("%s, seed %d: ends at %.4f with the cutoff, its full-walk twin at %.4f: more than 1e-3 below",
					set.name, seed, cut.logL, full.logL)
			}
		}
		n := float64(set.searches)
		ratio := float64(candsCut) / float64(candsFull)
		t.Logf("%s, %d searches: mean final logL %.4f with the cutoff, %.4f full walk (%d end elsewhere, worst %.4f); more than 2e-3 below the pair's better %d against %d; candidates %d against %d (x %.2f)",
			set.name, set.searches, sumCut/n, sumFull/n, differ, worst, shortCut, shortFull, candsCut, candsFull, ratio)
		if !set.gated {
			continue
		}
		if sumCut/n < sumFull/n-0.05 {
			t.Errorf("%s: mean final logL %.4f with the cutoff, %.4f full walk: more than 0.05 lower", set.name, sumCut/n, sumFull/n)
		}
		if shortCut > shortFull {
			t.Errorf("%s: %d searches end more than 2e-3 below the better twin with the cutoff, %d with the full walk", set.name, shortCut, shortFull)
		}
		if ratio > 0.6 {
			t.Errorf("%s: the walks reach %d candidates with the cutoff, %d without: more than 0.6 of them", set.name, candsCut, candsFull)
		}
	}
}

// TestShortListCutoffNoWorse is the gate the cutoff's second use passes
// through — no Newton solve for a prescore that lost it — each search paired
// with its twin from the same start that still lists such prescores
// (uncutList): 48 random-start searches of the simulated 20 x 250 alignment
// (the benchmark's search workloads) and 16 parsimony-start searches of
// 42_SC. On each set the mean final logL is no more than 0.05 below the
// twins', no more searches than the twins' end more than 2e-3·|logL| below
// the better of the pair, and the searches make at most 0.9 of the twins'
// solves, so the gate fails with the rule switched off; on 42_SC no search
// ends more than 1e-3·|logL| below its twin.
func TestShortListCutoffNoWorse(t *testing.T) {
	if testing.Short() {
		t.Skip("128 full SPR searches")
	}
	if raceEnabled() {
		t.Skip("128 serial SPR searches under the race detector")
	}
	sim, sc42, randomStart, parsimonyStart := gateStarts(t)
	for _, set := range []struct {
		name     string
		pat      *alignment.Patterns
		start    func(*alignment.Patterns, int64) *phylotree.Tree
		searches int
	}{
		{"20 x 250, random starts", sim, randomStart, 48},
		{"42_SC, parsimony starts", sc42, parsimonyStart, 16},
	} {
		var sumCut, sumAll float64
		var solvedCut, solvedAll uint64
		shortCut, shortAll, differ := 0, 0, 0
		worst := 0.0
		for i := 0; i < set.searches; i++ {
			seed := int64(3100 + i)
			cut, all := hookTwins(t, set.pat, set.start(set.pat, seed), &uncutList)
			sumCut, sumAll = sumCut+cut.logL, sumAll+all.logL
			solvedCut, solvedAll = solvedCut+cut.solved, solvedAll+all.solved
			if cut.logL != all.logL {
				differ++
			}
			worst = math.Min(worst, cut.logL-all.logL)
			best := math.Max(cut.logL, all.logL)
			if cut.logL < best-2e-3*math.Abs(best) {
				shortCut++
			}
			if all.logL < best-2e-3*math.Abs(best) {
				shortAll++
			}
			if set.pat == sc42 && cut.logL < all.logL-1e-3*math.Abs(all.logL) {
				t.Errorf("%s, seed %d: ends at %.4f with the cut short list, its twin at %.4f: more than 1e-3 below",
					set.name, seed, cut.logL, all.logL)
			}
		}
		n := float64(set.searches)
		ratio := float64(solvedCut) / float64(solvedAll)
		t.Logf("%s, %d searches: mean final logL %.4f with the cut short list, %.4f without (%d end elsewhere, worst %.4f); more than 2e-3 below the pair's better %d against %d; solves %d against %d (x %.2f)",
			set.name, set.searches, sumCut/n, sumAll/n, differ, worst, shortCut, shortAll, solvedCut, solvedAll, ratio)
		if sumCut/n < sumAll/n-0.05 {
			t.Errorf("%s: mean final logL %.4f with the cut short list, %.4f without: more than 0.05 lower", set.name, sumCut/n, sumAll/n)
		}
		if shortCut > shortAll {
			t.Errorf("%s: %d searches end more than 2e-3 below the better twin with the cut short list, %d without", set.name, shortCut, shortAll)
		}
		if ratio > 0.9 {
			t.Errorf("%s: %d solves with the cut short list, %d without: more than 0.9 of them", set.name, solvedCut, solvedAll)
		}
	}
}
