package search

import (
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
	"raxmlcell/internal/seqsim"
)

// TestBestCandidateTieBreak pins the deterministic winner selection: the
// highest log-likelihood wins, and an exact tie goes to the lowest
// candidate index — the strictly-greater scan in index order that picks
// what a loop accepting as it scores would.
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

// runSPR42SC runs the full SPR search on the 42_SC fixture, starting from
// the same parsimony tree every time.
func runSPR42SC(t *testing.T, reg *obs.Registry) (*Result, likelihood.Meter) {
	t.Helper()
	return runSPR42SCOpts(t, Options{Metrics: reg})
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

// TestSearchMeterDeterminism42SC repeats the 42_SC search and requires
// bit-identical results and Meter totals across runs, with SharedHits at 0.
// 42_SC is one block of patterns: neither search offers the range executor
// anything, so none of its helpers is started on its account.
func TestSearchMeterDeterminism42SC(t *testing.T) {
	if testing.Short() {
		t.Skip("full SPR search on 42 taxa, twice")
	}
	blocks0, _ := likelihood.RangeBlocks()
	resA, mtA := runSPR42SC(t, nil)
	resB, mtB := runSPR42SC(t, nil)
	if blocks, _ := likelihood.RangeBlocks(); blocks != blocks0 {
		t.Errorf("the 42_SC searches ran %d pattern blocks through the range executor, want 0", blocks-blocks0)
	}
	if math.Float64bits(resA.LogL) != math.Float64bits(resB.LogL) {
		t.Errorf("repeat run logL %.17g != %.17g", resB.LogL, resA.LogL)
	}
	if mtA != mtB {
		t.Errorf("repeat run meter differs:\n first %+v\n again %+v", mtA, mtB)
	}
	if mtA.SharedHits != 0 {
		t.Errorf("search metered %d shared hits", mtA.SharedHits)
	}
}

// TestSearchMetricsPublished verifies the observability wiring: a search
// publishes the scored- and solved-candidate counters and the range
// executor's block counters into the registry that -debug-addr serves. Two
// searches share the registry, as the jobs of a campaign do, so a counter
// keeps what the first search added and grows by what the second adds.
func TestSearchMetricsPublished(t *testing.T) {
	reg := obs.NewRegistry()
	var scored []uint64
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
			Radius: 3, MaxRounds: 2, SmoothPasses: 2, Epsilon: 0.05, Metrics: reg,
		}); err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		n, ok := snap.CounterValue("search.candidates_scored")
		if !ok {
			t.Fatal("search.candidates_scored not published")
		}
		scored = append(scored, n)
	}
	if scored[0] == 0 || scored[1] <= scored[0] {
		t.Errorf("search.candidates_scored read %d after one search and %d after two, want 0 < first < second", scored[0], scored[1])
	}
	snap := reg.Snapshot()
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

// TestSerialSearchCountsCandidates checks the candidate counters of one
// search: some candidates are scored, and stage 2 solves no more of them
// than stage 1 scored.
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
	scored, ok := snap.CounterValue("search.candidates_scored")
	if !ok || scored == 0 {
		t.Errorf("search.candidates_scored = %d (present %v), want > 0", scored, ok)
	}
	if solved, ok := snap.CounterValue("search.candidates_solved"); !ok || solved == 0 || solved > scored {
		t.Errorf("search.candidates_solved = %d (present %v), want in [1, %d]", solved, ok, scored)
	}
}
