package search

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/model"
	"raxmlcell/internal/obs"
	"raxmlcell/internal/parsimony"
	"raxmlcell/internal/phylotree"
	"raxmlcell/internal/seqsim"
)

// TestBestCandidateTieBreak pins the deterministic winner selection: the
// highest log-likelihood wins, and an exact tie goes to the lowest
// candidate index — the strictly-greater scan in index order that makes the
// pooled reduction byte-identical to the serial loop's choice.
func TestBestCandidateTieBreak(t *testing.T) {
	scores := []candScore{
		{z: 0.1, ll: -50, ok: true},
		{z: 0.2, ll: -40, ok: true}, // first of the tied best
		{z: 0.3, ll: -40, ok: true}, // tied, higher index: must lose
		{z: 0.4, ll: -45, ok: true},
		{z: 0.5, ll: -30, ok: false}, // unscored (detached edge): ignored
	}
	idx, z, ll := bestCandidate(scores, 0.9)
	if idx != 1 || math.Abs(z-0.2) > 0 || math.Abs(ll-(-40)) > 0 {
		t.Errorf("got (idx=%d z=%g ll=%g), want (1, 0.2, -40)", idx, z, ll)
	}

	// Nothing scored: index -1, fallback z0.
	idx, z, _ = bestCandidate([]candScore{{ok: false}, {ok: false}}, 0.9)
	if idx != -1 || math.Abs(z-0.9) > 0 {
		t.Errorf("empty reduction: got (idx=%d z=%g), want (-1, 0.9)", idx, z)
	}
	idx, _, _ = bestCandidate(nil, 0.9)
	if idx != -1 {
		t.Errorf("nil reduction: got idx=%d, want -1", idx)
	}
}

// TestBestNNICandidateChain pins the NNI acceptance replay: the serial loop
// is an order-dependent chain (a candidate must beat the *incumbent* by
// more than eps, and the incumbent updates as the scan walks), not an
// argmax. A later candidate that beats the start but not the updated
// incumbent must lose.
func TestBestNNICandidateChain(t *testing.T) {
	const current, eps = -100.0, 1.0
	scores := []candScore{
		{z: 0.1, ll: -98, ok: true},   // beats -100+1: incumbent -> -98
		{z: 0.2, ll: -97.5, ok: true}, // beats -100+1 but NOT -98+1: rejected
		{z: 0.3, ll: -96, ok: true},   // beats -98+1: incumbent -> -96
		{z: 0.4, ll: -95.5, ok: true}, // beats -96 but not -96+1: rejected
	}
	idx, z, ll := bestNNICandidate(scores, 0.9, current, eps)
	if idx != 2 || math.Abs(z-0.3) > 0 || math.Abs(ll-(-96)) > 0 {
		t.Errorf("got (idx=%d z=%g ll=%g), want (2, 0.3, -96)", idx, z, ll)
	}

	// No candidate clears the gate: keep the current likelihood.
	idx, _, ll = bestNNICandidate([]candScore{{ll: -99.5, ok: true}}, 0.9, current, eps)
	if idx != -1 || math.Abs(ll-current) > 0 {
		t.Errorf("gated reduction: got (idx=%d ll=%g), want (-1, %g)", idx, ll, current)
	}
}

// TestShortListTieBreak pins how stage 2's candidates are drawn: the
// shortListLen highest prescores, an exact tie to the lower index, candidates
// that were never scored left out, and the list in candidate order whatever
// the order of the scores.
func TestShortListTieBreak(t *testing.T) {
	pre := func(v float64) candScore { return candScore{pre: v, scored: true} }
	scores := []candScore{
		pre(-50),
		pre(-40), // tied for third with index 5: the lower index is listed
		{pre: -10},
		pre(-30),
		pre(-20),
		pre(-40),
		pre(-45),
	}
	if got := shortList(scores, nil, 0, math.Inf(1)); !slices.Equal(got, []int{1, 3, 4}) {
		t.Errorf("short list %v, want [1 3 4]", got)
	}
	if got := shortList(scores[:3], []int{}, 0, math.Inf(1)); !slices.Equal(got, []int{0, 1}) {
		t.Errorf("short list of two scored candidates %v, want both", got)
	}
	if got := shortList(nil, nil, 0, math.Inf(1)); len(got) != 0 {
		t.Errorf("short list of nothing: %v", got)
	}
}

// listOf recomputes from a prune's scores alone the candidates stage 2 must
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

// TestShortListIndependentOfWorkers42SC is the determinism of the two stages
// and of the cutoff: over two scoring-only SPR sweeps of the smoothed 42_SC
// tree, each a round with its own cutoff, searches of 1, 2 and 4 workers
// prescore the same candidates to the same bits, draw the same short list for
// every prune — the highest prescores that lost less than the round's
// cutoff, as listOf recomputes them from the scores — solve it to the same
// bits, set every round's cutoff to the same bits and leave the same Meter
// but for SharedHits — a wave is a function of the one before it and the list
// of the whole prescore slice, so who scored which candidate cannot reach
// either.
func TestShortListIndependentOfWorkers42SC(t *testing.T) {
	pat := load42SC(t)
	start, err := parsimony.BuildStepwise(pat, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	type sweep struct {
		vals    []float64 // per prune: every prescore (NaN where the walk stopped), then index, z and logL of each solve
		cutoffs []float64 // every round's, and the one the second sweep's losses set
		meter   likelihood.Meter
		cut     int // candidates the cutoff kept out of stage 1
		dropped int // prunes whose short list the cutoff shortened
	}
	run := func(workers int) sweep {
		eng, err := likelihood.NewEngine(pat, seqsim.DefaultModel(), likelihood.Config{})
		if err != nil {
			t.Fatal(err)
		}
		tr := start.Clone()
		eng.AttachTree(tr)
		ll, err := SmoothBranches(eng, tr, 2, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		sc := newSearchCtx(eng, Options{Workers: workers})
		defer sc.close(eng)
		var out sweep
		for round := 0; round < 3; round++ {
			sc.startRound(ll)
			out.cutoffs = append(out.cutoffs, sc.cutoff)
			if round == 2 {
				break
			}
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
				var solved []int
				scored := 0
				for i := range scores {
					out.vals = append(out.vals, scores[i].pre)
					if scores[i].scored {
						scored++
					}
					if scores[i].ok {
						solved = append(solved, i)
						out.vals = append(out.vals, float64(i), scores[i].z, scores[i].ll)
					}
				}
				want, dropped := listOf(sc.cands, scores, ll, sc.cutoff)
				if !slices.Equal(solved, want) {
					t.Fatalf("%d workers: solved %v, want the short list %v", workers, solved, want)
				}
				if dropped {
					out.dropped++
				}
				out.cut += len(scores) - scored
				if err := tr.Undo(ps); err != nil {
					t.Fatal(err)
				}
			}
		}
		out.meter = eng.Meter
		return out
	}
	serial := run(1)
	if serial.meter.SharedHits != 0 {
		t.Errorf("serial sweep metered %d shared hits", serial.meter.SharedHits)
	}
	if serial.cut == 0 {
		t.Error("the cutoff kept no candidate out of stage 1")
	}
	if serial.dropped == 0 {
		t.Error("the cutoff took no candidate off a short list")
	}
	t.Logf("cutoffs %.6f, %.6f, %.6f; %d candidates kept out of stage 1, %d short lists shortened",
		serial.cutoffs[0], serial.cutoffs[1], serial.cutoffs[2], serial.cut, serial.dropped)
	for _, workers := range []int{2, 4} {
		pooled := run(workers)
		if pooled.meter.SharedHits == 0 {
			t.Errorf("%d workers: no shared-store hits", workers)
		}
		pooled.meter.SharedHits = 0
		if pooled.meter != serial.meter {
			t.Errorf("%d workers: meter differs from the serial sweep's beyond SharedHits:\n serial %s\n pooled %s",
				workers, serial.meter.String(), pooled.meter.String())
		}
		if len(pooled.vals) != len(serial.vals) {
			t.Fatalf("%d workers: %d values, serial %d: the short lists differ", workers, len(pooled.vals), len(serial.vals))
		}
		for i := range serial.vals {
			// NaN marks a candidate with no prescore: below a cut, or in a
			// prune too small to rank.
			if pooled.vals[i] != serial.vals[i] && !(math.IsNaN(pooled.vals[i]) && math.IsNaN(serial.vals[i])) {
				t.Fatalf("%d workers: value %d is %.17g, serial %.17g", workers, i, pooled.vals[i], serial.vals[i])
			}
		}
		for r := range serial.cutoffs {
			if math.Float64bits(pooled.cutoffs[r]) != math.Float64bits(serial.cutoffs[r]) {
				t.Errorf("%d workers: cutoff %d is %.17g, serial %.17g", workers, r+1, pooled.cutoffs[r], serial.cutoffs[r])
			}
		}
	}
}

// TestResultBitsIndependentOfGOMAXPROCS is the executor's contract seen from
// here: on a simulated 24 x 3 000 alignment (several blocks of patterns), for
// both backends under Gamma and CAT, what Evaluate, MakeNewz, SmoothBranches
// and OptimizeAlpha return, the branch lengths they leave and the whole Meter
// have the same bits at GOMAXPROCS 1 — no helper, nothing published — and at
// 4, above this host's CPU count so that helpers and caller really interleave.
func TestResultBitsIndependentOfGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	gamma := seqsim.DefaultModel()
	a, truth, err := seqsim.Generate(seqsim.Params{Taxa: 24, Sites: 3000, MeanBranch: 0.1, Alpha: 0.8}, gamma, rng)
	if err != nil {
		t.Fatal(err)
	}
	pat := alignment.Compress(a)
	fit, err := likelihood.NewEngine(pat, gamma, likelihood.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := FitCAT(fit, truth, 4)
	if err != nil {
		t.Fatal(err)
	}
	start, err := parsimony.BuildStepwise(pat, rng)
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		vals  []float64
		meter likelihood.Meter
	}
	run := func(procs int, backend string, mod *model.Model) outcome {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		eng, err := likelihood.NewEngine(pat, mod, likelihood.Config{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		tr := start.Clone()
		var o outcome
		keep := func(v float64, err error) {
			if err != nil {
				t.Fatal(err)
			}
			o.vals = append(o.vals, v)
		}
		keep(eng.Evaluate(tr.Tips[0]))
		z, ll, err := eng.MakeNewz(tr.Edges()[7])
		keep(z, err)
		keep(ll, nil)
		keep(SmoothBranches(eng, tr, 2, 0.01))
		if !mod.IsCAT() {
			alpha, ll, err := OptimizeAlpha(eng, tr, 0.02, 50, 1e-2)
			keep(alpha, err)
			keep(ll, nil)
		}
		keep(eng.Evaluate(tr.Tips[3]))
		for _, e := range tr.Edges() {
			o.vals = append(o.vals, e.Z)
		}
		o.meter = eng.Meter
		return o
	}
	blocks0, _ := likelihood.RangeBlocks()
	for _, backend := range likelihood.Backends() {
		for name, mod := range map[string]*model.Model{"gamma": gamma, "cat": cat} {
			one, four := run(1, backend, mod), run(4, backend, mod)
			for i := range one.vals {
				if math.Float64bits(one.vals[i]) != math.Float64bits(four.vals[i]) {
					t.Errorf("%s/%s: value %d of %d is %.17g at GOMAXPROCS 1, %.17g at 4", backend, name, i, len(one.vals), one.vals[i], four.vals[i])
					break
				}
			}
			if one.meter != four.meter {
				t.Errorf("%s/%s: meters differ:\n 1: %s\n 4: %s", backend, name, one.meter.String(), four.meter.String())
			}
		}
	}
	if blocks, _ := likelihood.RangeBlocks(); blocks == blocks0 {
		t.Errorf("%d patterns ran no block through the range executor", pat.NumPatterns())
	}
}

// runSPR42SC runs the full SPR search on the 42_SC fixture with the given
// worker count, starting from the same parsimony tree every time.
func runSPR42SC(t *testing.T, workers int, reg *obs.Registry) (*Result, likelihood.Meter) {
	t.Helper()
	return runSPR42SCOpts(t, Options{Workers: workers, Metrics: reg})
}

// runSPR42SCOpts is runSPR42SC with full option control; Radius/rounds/epsilon
// are pinned.
func runSPR42SCOpts(t *testing.T, opt Options) (*Result, likelihood.Meter) {
	t.Helper()
	pat := load42SC(t)
	m := seqsim.DefaultModel()
	start, err := parsimony.BuildStepwise(pat, rand.New(rand.NewSource(777)))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := likelihood.NewEngine(pat, m, likelihood.Config{})
	if err != nil {
		t.Fatal(err)
	}
	opt.Radius, opt.MaxRounds, opt.SmoothPasses, opt.Epsilon = 3, 2, 2, 0.05
	res, err := Run(eng, start, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res, eng.Meter
}

// TestParallelSPRCrossValidation42SC is the pool's acceptance test: the
// worker-pool SPR search on the 42_SC fixture must reach the identical
// final topology and the same log-likelihood (1e-9 relative) as the serial
// search, with the same move and round counts — parallelism is a pure
// scheduling change, never a search-path change — and must not redo kernel
// work: both searches read the vectors facing the prune point from the
// engine's slots and compute each vector facing away from it once, so the
// pooled newview total is held to 1.00x serial.
func TestParallelSPRCrossValidation42SC(t *testing.T) {
	if testing.Short() {
		t.Skip("full SPR search on 42 taxa, twice")
	}
	blocks0, _ := likelihood.RangeBlocks()
	serial, mtSerial := runSPR42SC(t, 1, nil)
	pooled, mtPooled := runSPR42SC(t, 4, nil)
	// 42_SC is one block of patterns: neither search offers the range
	// executor anything, so none of its helpers is started on its account.
	if blocks, _ := likelihood.RangeBlocks(); blocks != blocks0 {
		t.Errorf("the 42_SC searches ran %d pattern blocks through the range executor, want 0", blocks-blocks0)
	}

	if math.Abs(serial.LogL-pooled.LogL) > 1e-9*math.Max(1, math.Abs(serial.LogL)) {
		t.Errorf("pooled logL %.12f != serial %.12f", pooled.LogL, serial.LogL)
	}
	if serial.Moves != pooled.Moves || serial.Rounds != pooled.Rounds {
		t.Errorf("search path diverged: serial %d moves/%d rounds, pooled %d moves/%d rounds",
			serial.Moves, serial.Rounds, pooled.Moves, pooled.Rounds)
	}
	rf, err := phylotree.RobinsonFoulds(serial.Tree, pooled.Tree)
	if err != nil {
		t.Fatal(err)
	}
	if rf != 0 {
		t.Errorf("topologies diverged: RF=%d", rf)
	}
	if mtPooled.NewviewCalls > mtSerial.NewviewCalls {
		t.Errorf("pooled newview calls %d vs serial %d: ratio %.3f > 1.00",
			mtPooled.NewviewCalls, mtSerial.NewviewCalls, float64(mtPooled.NewviewCalls)/float64(mtSerial.NewviewCalls))
	}
	if mtPooled.SharedHits == 0 {
		t.Error("pooled run recorded no shared-store hits")
	}
}

// TestParallelNewviewCallsEqualSerial42SC is what became of the shared
// store's redundancy accounting: there is no per-worker recomputation left
// to remove, so the serial and the 4-worker search of 42_SC perform exactly
// the same kernel calls — newview, makenewz, evaluate and Newton iterations
// — and read the same number of vectors from the engine's slots. Only where
// a repeated request for a vector facing away from the prune point is served
// differs: the serial table's memo is not metered, the pooled store's hits
// are.
func TestParallelNewviewCallsEqualSerial42SC(t *testing.T) {
	if testing.Short() {
		t.Skip("full SPR search on 42 taxa, twice")
	}
	_, mtSerial := runSPR42SC(t, 1, nil)
	_, mtPooled := runSPR42SC(t, 4, nil)
	if mtSerial.SharedHits != 0 {
		t.Errorf("serial run metered %d shared hits", mtSerial.SharedHits)
	}
	mtPooled.SharedHits = 0
	if mtPooled != mtSerial {
		t.Errorf("4-worker and serial meters differ beyond SharedHits:\n serial %s\n pooled %s",
			mtSerial.String(), mtPooled.String())
	}
}

// TestParallelSearchMeterDeterminism repeats the pooled 42_SC search and
// requires bit-identical results and Meter totals across runs: static
// partitioning plus worker-order merges make the kernel-op accounting a
// pure function of the input, not of goroutine scheduling.
func TestParallelSearchMeterDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full SPR search on 42 taxa, twice")
	}
	resA, mtA := runSPR42SC(t, 3, nil)
	resB, mtB := runSPR42SC(t, 3, nil)
	if math.Abs(resA.LogL-resB.LogL) > 0 {
		t.Errorf("repeat run logL %.15f != %.15f", resB.LogL, resA.LogL)
	}
	if mtA != mtB {
		t.Errorf("repeat run meter differs:\n first %+v\n again %+v", mtA, mtB)
	}
}

// TestParallelNNICrossValidation checks the NNI acceptance chain survives
// pooling: serial NNISearch and the pooled NNISearchOpts must accept the
// same interchanges and land on the same likelihood.
func TestParallelNNICrossValidation(t *testing.T) {
	pat, _, m := simulated(t, 91, 12, 300)
	run := func(workers int) (float64, int, *phylotree.Tree) {
		start, err := parsimony.BuildStepwise(pat, rand.New(rand.NewSource(92)))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := likelihood.NewEngine(pat, m, likelihood.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ll, moves, err := NNISearchOpts(eng, start, Options{MaxRounds: 4, Epsilon: 0.01, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return ll, moves, start
	}
	llS, movesS, trS := run(1)
	llP, movesP, trP := run(4)
	if math.Abs(llS-llP) > 1e-9*math.Max(1, math.Abs(llS)) {
		t.Errorf("pooled NNI logL %.12f != serial %.12f", llP, llS)
	}
	if movesS != movesP {
		t.Errorf("pooled NNI accepted %d moves, serial %d", movesP, movesS)
	}
	rf, err := phylotree.RobinsonFoulds(trS, trP)
	if err != nil {
		t.Fatal(err)
	}
	if rf != 0 {
		t.Errorf("NNI topologies diverged: RF=%d", rf)
	}
}

// TestParallelSharedCacheStressSPRCycles hammers the shared epoch store
// with the search's real access pattern — repeated Prune / concurrent
// pooled scoring / Regraft-or-Undo cycles on 4 workers — and checks every
// pooled score against a private-Views serial recompute, bitwise. Runs
// under -race in CI, where it doubles as the reader/single-flight race
// probe.
func TestParallelSharedCacheStressSPRCycles(t *testing.T) {
	pat, _, m := simulated(t, 97, 16, 300)
	tr, err := parsimony.BuildStepwise(pat, rand.New(rand.NewSource(98)))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := likelihood.NewEngine(pat, m, likelihood.Config{})
	if err != nil {
		t.Fatal(err)
	}
	eng.AttachTree(tr)
	sc := newSearchCtx(eng, Options{Workers: 4})
	defer sc.close(eng)
	if sc.shared == nil {
		t.Fatal("pooled searchCtx did not install the shared store")
	}

	rng := rand.New(rand.NewSource(99))
	cycles, compared := 0, 0
	for cycle := 0; cycle < 30; cycle++ {
		cands := pruneCandidates(tr)
		p := cands[rng.Intn(len(cands))]
		if p.Back == nil || p.Next == nil {
			continue
		}
		ps, err := tr.Prune(p)
		if err != nil {
			continue
		}
		zSub := ps.P.Z
		sc.cands, sc.parents = phylotree.RadiusEdgesInto(sc.cands[:0], sc.parents[:0], ps.Q, 3)
		sc.cands, sc.parents = phylotree.RadiusEdgesInto(sc.cands, sc.parents, ps.R, 3)

		scores, err := sc.scoreInsertions(eng, sc.cands, sc.parents, ps, zSub, math.Inf(-1))
		if err != nil {
			t.Fatal(err)
		}
		// Serial reference through one-shot private Views: the pooled,
		// shared-store-served prescores and the short list's solves must
		// match it bit for bit.
		ref := eng.NewViews()
		solved := 0
		for i, cand := range sc.cands {
			if cand.Back == nil {
				continue
			}
			if len(sc.cands) > shortListLen {
				pre, err := ref.Prescore(cand, &sc.across)
				if err != nil {
					t.Fatal(err)
				}
				if scores[i].pre != pre {
					t.Fatalf("cycle %d cand %d: pooled prescore %.17g != serial %.17g", cycle, i, scores[i].pre, pre)
				}
				compared++
			}
			if !scores[i].ok {
				continue
			}
			solved++
			z, ll, err := ref.InsertionScore(cand, ps.P, zSub)
			if err != nil {
				t.Fatal(err)
			}
			if scores[i].z != z || scores[i].ll != ll {
				t.Fatalf("cycle %d cand %d: pooled (z=%.17g ll=%.17g) != serial (%.17g, %.17g)",
					cycle, i, scores[i].z, scores[i].ll, z, ll)
			}
			compared++
		}
		if want := min(len(sc.cands), shortListLen); solved != want {
			t.Fatalf("cycle %d: %d of %d candidates solved, want %d", cycle, solved, len(sc.cands), want)
		}
		ref.Release()

		if len(sc.cands) > 0 && rng.Intn(2) == 0 {
			bestIdx, bestZ, _ := bestCandidate(scores, zSub)
			if bestIdx >= 0 {
				if err := tr.Regraft(ps, sc.cands[bestIdx]); err != nil {
					t.Fatal(err)
				}
				ps.P.SetZ(bestZ)
				eng.Invalidate(ps.P)
				for _, b := range [...]*phylotree.Node{ps.P, ps.P.Next, ps.P.Next.Next} {
					if _, _, err := eng.MakeNewz(b); err != nil {
						t.Fatal(err)
					}
				}
				cycles++
				continue
			}
		}
		if err := tr.Undo(ps); err != nil {
			t.Fatal(err)
		}
		cycles++
	}
	if cycles < 10 || compared == 0 {
		t.Fatalf("stress exercised only %d cycles / %d comparisons", cycles, compared)
	}
	if sc.shared.Hits() == 0 {
		t.Error("stress produced no shared-store hits")
	}
}

// TestSearchMetricsPublished verifies the observability wiring: a pooled
// search publishes scored-candidate and parallel-round counters plus the
// pool-occupancy gauges into the registry that -debug-addr serves. Two
// searches share the registry, as the jobs of a campaign do, so a counter
// must hold the sum of what each search added.
func TestSearchMetricsPublished(t *testing.T) {
	reg := obs.NewRegistry()
	var sharedHits uint64
	for _, seed := range []int64{93, 193} {
		pat, _, m := simulated(t, seed, 14, 240)
		start, err := parsimony.BuildStepwise(pat, rand.New(rand.NewSource(seed+1)))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := likelihood.NewEngine(pat, m, likelihood.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(eng, start, Options{
			Radius: 3, MaxRounds: 2, SmoothPasses: 2, Epsilon: 0.05,
			Workers: 2, Metrics: reg,
		}); err != nil {
			t.Fatal(err)
		}
		if eng.Meter.SharedHits == 0 {
			t.Fatalf("seed %d: pooled search metered no shared hits", seed)
		}
		sharedHits += eng.Meter.SharedHits
	}
	snap := reg.Snapshot()
	if n, ok := snap.CounterValue("search.candidates_scored"); !ok || n == 0 {
		t.Errorf("search.candidates_scored = %d (present %v), want > 0", n, ok)
	}
	if n, ok := snap.CounterValue("search.parallel_rounds"); !ok || n == 0 {
		t.Errorf("search.parallel_rounds = %d (present %v), want > 0", n, ok)
	}
	if v, ok := snap.GaugeValue("search.pool_workers"); !ok || math.Abs(v-2) > 0 {
		t.Errorf("search.pool_workers = %g (present %v), want 2", v, ok)
	}
	if _, ok := snap.GaugeValue("search.pool_busy"); !ok {
		t.Error("search.pool_busy gauge not published")
	}
	if v, ok := snap.GaugeValue("search.pool_busy_peak"); !ok || v < 1 || v > 2 {
		t.Errorf("search.pool_busy_peak = %g (present %v), want in [1, 2]", v, ok)
	}
	if n, ok := snap.CounterValue("cache.shared_hits"); !ok || n != sharedHits {
		t.Errorf("cache.shared_hits = %d (present %v), want the two engines' %d", n, ok, sharedHits)
	}
	if v, ok := snap.GaugeValue("cache.epoch"); !ok || v < 1 {
		t.Errorf("cache.epoch = %g (present %v), want >= 1", v, ok)
	}
	// The range executor's counters are the process's, whatever engine ran
	// the blocks; no later pass has run since the last search stored them.
	run, adopted := likelihood.RangeBlocks()
	if n, ok := snap.CounterValue("kernel.range_blocks"); !ok || n != run {
		t.Errorf("kernel.range_blocks = %d (present %v), want %d", n, ok, run)
	}
	if n, ok := snap.CounterValue("kernel.range_blocks_adopted"); !ok || n != adopted {
		t.Errorf("kernel.range_blocks_adopted = %d (present %v), want %d", n, ok, adopted)
	}
}

// TestSerialSearchCountsCandidates checks the candidate counter also works
// without a pool (Workers <= 1) and that no pool gauges appear.
func TestSerialSearchCountsCandidates(t *testing.T) {
	pat, _, m := simulated(t, 95, 10, 200)
	start, err := parsimony.BuildStepwise(pat, rand.New(rand.NewSource(96)))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := likelihood.NewEngine(pat, m, likelihood.Config{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	if _, err := Run(eng, start, Options{
		Radius: 2, MaxRounds: 1, SmoothPasses: 2, Epsilon: 0.05, Metrics: reg,
	}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if n, ok := snap.CounterValue("search.candidates_scored"); !ok || n == 0 {
		t.Errorf("search.candidates_scored = %d (present %v), want > 0", n, ok)
	}
	if n, _ := snap.CounterValue("search.parallel_rounds"); n != 0 {
		t.Errorf("serial run reported %d parallel rounds", n)
	}
	if _, ok := snap.GaugeValue("search.pool_workers"); ok {
		t.Error("serial run published search.pool_workers")
	}
	// Workers <= 1 must carry zero shared-cache machinery: no store is
	// installed, so no cache series appear and no shared hits are metered.
	if _, ok := snap.CounterValue("cache.shared_hits"); ok {
		t.Error("serial run published cache.shared_hits")
	}
	if _, ok := snap.GaugeValue("cache.epoch"); ok {
		t.Error("serial run published cache.epoch")
	}
	if eng.Meter.SharedHits != 0 {
		t.Errorf("serial run metered %d shared hits", eng.Meter.SharedHits)
	}
}
