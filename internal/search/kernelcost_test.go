package search

import (
	"math"
	"math/rand"
	"testing"

	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/obs"
	"raxmlcell/internal/parsimony"
	"raxmlcell/internal/phylotree"
	"raxmlcell/internal/seqsim"
)

// extraValuePasses is the number of value passes the Newton safeguard
// added: every evaluate takes one log per pattern, and so does every solve
// whose caller reads its value (valued of them); a length-only solve takes
// none. A guarded solve that left its entry point values both points: one
// pass more than that, or two for a length-only solve.
func extraValuePasses(t *testing.T, m *likelihood.Meter, npat int, valued uint64) uint64 {
	t.Helper()
	base := uint64(npat) * (valued + m.EvaluateCalls)
	if m.Logs < base || (m.Logs-base)%uint64(npat) != 0 {
		t.Fatalf("Meter.Logs = %d is not %d x (%d valued solves + %d evaluates) plus whole extra passes",
			m.Logs, npat, valued, m.EvaluateCalls)
	}
	return (m.Logs - base) / uint64(npat)
}

// TestSmoothingOneLogPerPatternPerSolve42SC is the absolute cost of the
// value pass: over four smoothing passes of the 42_SC tree the engine takes
// exactly one logarithm per pattern per pass — the evaluate that ends it —
// and none per Newton solve or iteration: every smoothing solve is
// length-only, and none needs the safeguard's value passes.
func TestSmoothingOneLogPerPatternPerSolve42SC(t *testing.T) {
	pat := load42SC(t)
	tr, err := parsimony.BuildStepwise(pat, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range likelihood.Backends() {
		eng, err := likelihood.NewEngine(pat, seqsim.DefaultModel(), likelihood.Config{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := SmoothBranches(eng, tr.Clone(), 4, 1e-6); err != nil {
			t.Fatal(err)
		}
		m := &eng.Meter
		if m.NewtonIters <= m.MakenewzCalls {
			t.Fatalf("%s: %d Newton iterations for %d solves: nothing iterated", backend, m.NewtonIters, m.MakenewzCalls)
		}
		if m.EvaluateCalls == 0 || m.EvaluateCalls > 4 || m.MakenewzCalls != 81*m.EvaluateCalls {
			t.Fatalf("%s: %d evaluates for %d solves, want one per pass of 81", backend, m.EvaluateCalls, m.MakenewzCalls)
		}
		if extra := extraValuePasses(t, m, pat.NumPatterns(), 0); extra != 0 {
			t.Errorf("%s: Meter.Logs = %d, want %d patterns x %d evaluates: solves paid %d value passes",
				backend, m.Logs, pat.NumPatterns(), m.EvaluateCalls, extra)
		}
	}
}

// TestNewtonSafeguardShare42SC reports how often a Newton solve of the
// 42_SC search leaves the concave region, meets a clamp or runs out of
// iterations away from its entry point — the only solves that still pay
// for value passes their caller does not read — and holds those passes
// under 1 % of the solves. The valued solves are the short list's and the
// last of the three after each accepted move.
func TestNewtonSafeguardShare42SC(t *testing.T) {
	if testing.Short() {
		t.Skip("full SPR search on 42 taxa")
	}
	reg := obs.NewRegistry()
	res, m := runSPR42SC(t, reg)
	valued := reg.Counter("search.candidates_solved").Value() + uint64(res.Moves)
	extra := extraValuePasses(t, &m, load42SC(t).NumPatterns(), valued)
	share := float64(extra) / float64(m.MakenewzCalls)
	t.Logf("42_SC search: %d safeguard value passes over %d Newton solves, %d of them valued (%.3f %%)", extra, m.MakenewzCalls, valued, 100*share)
	if share >= 0.01 {
		t.Errorf("safeguard share %.4f, want < 0.01", share)
	}
}

// goldenSectionAlpha is the optimiser OptimizeAlpha used before brentMax: a
// golden-section search over the whole bracket in log(alpha) space. Kept
// here as the oracle for where the optimum is, nothing else.
func goldenSectionAlpha(t *testing.T, eng *likelihood.Engine, tr *phylotree.Tree, lo, hi, tol float64) (alpha, ll float64) {
	t.Helper()
	eval := func(x float64) float64 {
		m, err := eng.Mod.WithAlpha(math.Exp(x))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.SetModel(m); err != nil {
			t.Fatal(err)
		}
		v, err := eng.Evaluate(tr.Tips[0])
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	const phi = 0.6180339887498949
	a, b := math.Log(lo), math.Log(hi)
	x1, x2 := b-phi*(b-a), a+phi*(b-a)
	f1, f2 := eval(x1), eval(x2)
	for b-a > tol {
		if f1 < f2 {
			a, x1, f1 = x1, x2, f2
			x2 = a + phi*(b-a)
			f2 = eval(x2)
		} else {
			b, x2, f2 = x2, x1, f1
			x1 = b - phi*(b-a)
			f1 = eval(x1)
		}
	}
	x := (a + b) / 2
	return math.Exp(x), eval(x)
}

// TestOptimizeAlphaCost42SC is the absolute cost of an alpha fit, each
// evaluation being a full-tree recomputation: on the smoothed 42_SC tree,
// from starting values on both sides of the optimum, OptimizeAlpha spends
// at most 12 evaluations (golden section spent 17), lands within tol of the
// golden-section optimum in log space at a log-likelihood no lower than it
// by 1e-6·|logL|, and leaves the engine on the alpha it returns.
func TestOptimizeAlphaCost42SC(t *testing.T) {
	pat := load42SC(t)
	start, err := parsimony.BuildStepwise(pat, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	const lo, hi, tol = 0.02, 50, 1e-2
	for _, alpha0 := range []float64{0.1, 0.5, 1, 5} {
		m, err := seqsim.DefaultModel().WithAlpha(alpha0)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := likelihood.NewEngine(pat, m, likelihood.Config{})
		if err != nil {
			t.Fatal(err)
		}
		tr := start.Clone()
		if _, err := SmoothBranches(eng, tr, 2, 0.05); err != nil {
			t.Fatal(err)
		}
		before := eng.Meter.EvaluateCalls
		alpha, ll, err := OptimizeAlpha(eng, tr, lo, hi, tol)
		if err != nil {
			t.Fatal(err)
		}
		spent := eng.Meter.EvaluateCalls - before
		if eng.Mod.Alpha != alpha {
			t.Errorf("alpha0=%g: returned alpha %v but the engine's model holds %v", alpha0, alpha, eng.Mod.Alpha)
		}
		if at, err := eng.Evaluate(tr.Tips[0]); err != nil || at != ll {
			t.Errorf("alpha0=%g: returned logL %.10f, engine evaluates to %.10f (err %v)", alpha0, ll, at, err)
		}
		wantAlpha, wantLL := goldenSectionAlpha(t, eng, tr, lo, hi, tol)
		t.Logf("alpha0=%g: %d evaluations, alpha %.5f logL %.6f (golden section: alpha %.5f logL %.6f)",
			alpha0, spent, alpha, ll, wantAlpha, wantLL)
		if spent > 12 {
			t.Errorf("alpha0=%g: %d evaluations, want <= 12", alpha0, spent)
		}
		if d := math.Abs(math.Log(alpha) - math.Log(wantAlpha)); d > tol {
			t.Errorf("alpha0=%g: alpha %.6f is %.4f from the golden-section optimum %.6f in log space, want <= %g", alpha0, alpha, d, wantAlpha, tol)
		}
		if ll < wantLL-1e-6*math.Abs(wantLL) {
			t.Errorf("alpha0=%g: logL %.8f below the golden-section optimum's %.8f", alpha0, ll, wantLL)
		}
	}
}

// TestCandidateCost42SC is the absolute cost of scoring one lazy-SPR
// candidate, over one SPR round of the smoothed 42_SC tree with the default
// radius and an acceptance threshold nothing can reach, so that every kernel
// call of the round is scoring: prune, orient the slots, one vector facing
// away from the prune point per new candidate edge, the prescore of every
// candidate the cutoff leaves in the walk, the insertion node and a Newton
// solve for the short list (the best prescores that lost less than the
// cutoff), undo. Candidates are counted where they are scored; the bounds are
// the measured values plus 10 %.
func TestCandidateCost42SC(t *testing.T) {
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
	ll, err := SmoothBranches(eng, tr, 4, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sc := newSearchCtx(eng, Options{Metrics: reg})
	before := eng.Meter
	if _, moves, err := sprRound(eng, tr, sc, DefaultOptions().Radius, ll, math.Inf(1)); err != nil || moves != 0 {
		t.Fatalf("scoring-only round: %d moves, err %v", moves, err)
	}
	m := &eng.Meter
	cands := float64(reg.Counter("search.candidates_scored").Value())
	if solved := reg.Counter("search.candidates_solved").Value(); solved != m.MakenewzCalls-before.MakenewzCalls {
		t.Fatalf("search.candidates_solved = %d, the round made %d solves: something else solved", solved, m.MakenewzCalls-before.MakenewzCalls)
	}
	newviews := float64(m.NewviewCalls-before.NewviewCalls) / cands
	solves := float64(m.MakenewzCalls-before.MakenewzCalls) / cands
	iters := float64(m.NewtonIters-before.NewtonIters) / cands
	if prescores := m.EvaluateCalls - before.EvaluateCalls; float64(prescores) > cands {
		t.Errorf("%d evaluates for %.0f candidates: a prescore is the only evaluate of scoring", prescores, cands)
	}
	t.Logf("%.0f candidates: %.3f newviews, %.3f solves and %.3f Newton iterations per candidate", cands, newviews, solves, iters)

	// Measured 2.303 over 360 candidates: the prescore's insertion node is
	// one, the vector facing away from the prune point at the candidate's edge
	// most of another (each computed once and shared with the candidates beyond
	// it), and the insertion nodes of the short list's solves and the
	// re-orientation of the slots after each prune are spread over the four
	// candidates a prune reaches here. 2.922 while a prescore that lost the
	// cutoff was still solved; with the whole radius walked it read 2.167 over
	// 2 264 candidates (4 906 newviews; now 829); 2.034 when every candidate
	// was solved, 3.834 when a private table per prune recomputed every vector
	// it touched.
	if newviews > 2.533 {
		t.Errorf("%.3f newviews per scored candidate, want <= 2.533 (measured 2.303)", newviews)
	}
	// Measured 0.131: at most three of a prune's candidates, and none that
	// lost round 1's cutoff. 0.750 while those were solved (three of the four
	// a prune reaches here), 0.140 with the whole radius walked (21 a prune).
	if solves > 0.144 {
		t.Errorf("%.3f Newton solves per scored candidate, want <= 0.144 (measured 0.131)", solves)
	}
	// Measured 0.319, 2.4 a solve; 2.572 while a prescore that lost the cutoff
	// was solved (2.569 while smoothing solved every branch to
	// newtonGainTol), 0.482 with the whole radius walked, 4.295 when every
	// candidate was solved, 8.101 with plain Newton steps stopped on the
	// branch length alone.
	if iters > 0.351 {
		t.Errorf("%.3f Newton iterations per scored candidate, want <= 0.351 (measured 0.319)", iters)
	}
}
