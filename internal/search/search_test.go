package search

import (
	"math"
	"math/rand"
	"testing"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/model"
	"raxmlcell/internal/parsimony"
	"raxmlcell/internal/phylotree"
	"raxmlcell/internal/seqsim"
)

func simulated(t *testing.T, seed int64, taxa, sites int) (*alignment.Patterns, *phylotree.Tree, *model.Model) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := seqsim.DefaultModel()
	a, truth, err := seqsim.Generate(seqsim.Params{
		Taxa: taxa, Sites: sites, MeanBranch: 0.12, Alpha: 0.8,
	}, m, rng)
	if err != nil {
		t.Fatal(err)
	}
	return alignment.Compress(a), truth, m
}

func TestSmoothBranchesImproves(t *testing.T) {
	pat, truth, m := simulated(t, 11, 10, 400)
	eng, err := likelihood.NewEngine(pat, m, likelihood.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately break all branch lengths.
	tr := truth.Clone()
	for _, e := range tr.Edges() {
		e.SetZ(0.5)
	}
	before, err := eng.Evaluate(tr.Tips[0])
	if err != nil {
		t.Fatal(err)
	}
	after, err := SmoothBranches(eng, tr, 6, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if after <= before {
		t.Errorf("smoothing did not improve: %.4f -> %.4f", before, after)
	}
	// Second smoothing should be (almost) a no-op: converged.
	again, err := SmoothBranches(eng, tr, 6, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if again < after-0.05 {
		t.Errorf("smoothing not stable: %.6f then %.6f", after, again)
	}
}

func TestOptimizeAlphaRecovers(t *testing.T) {
	// Data generated with alpha=0.8: the fitted alpha should land in a
	// plausible band around it and beat badly mis-specified alphas.
	pat, truth, m := simulated(t, 13, 12, 800)
	eng, err := likelihood.NewEngine(pat, m, likelihood.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr := truth.Clone()
	if _, err := SmoothBranches(eng, tr, 4, 1e-3); err != nil {
		t.Fatal(err)
	}
	alpha, ll, err := OptimizeAlpha(eng, tr, 0.02, 50, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if alpha < 0.2 || alpha > 4 {
		t.Errorf("fitted alpha = %.3f, generated with 0.8", alpha)
	}
	// Compare against a mis-specified alpha.
	bad, err := eng.Mod.WithAlpha(20)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.SetModel(bad); err != nil {
		t.Fatal(err)
	}
	llBad, err := eng.Evaluate(tr.Tips[0])
	if err != nil {
		t.Fatal(err)
	}
	if llBad > ll {
		t.Errorf("alpha=20 scores %.4f better than fitted %.4f", llBad, ll)
	}
}

func TestOptimizeAlphaErrors(t *testing.T) {
	pat, truth, m := simulated(t, 14, 6, 100)
	eng, err := likelihood.NewEngine(pat, m, likelihood.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := OptimizeAlpha(eng, truth, -1, 10, 1e-3); err == nil {
		t.Error("negative lower bound accepted")
	}
	if _, _, err := OptimizeAlpha(eng, truth, 5, 1, 1e-3); err == nil {
		t.Error("inverted bounds accepted")
	}
}

func TestSPRRecoversTopology(t *testing.T) {
	// The headline correctness test: from a parsimony starting tree, the
	// SPR search must find a topology close to (usually identical to) the
	// generating tree on high-signal data.
	pat, truth, m := simulated(t, 17, 12, 1000)
	rng := rand.New(rand.NewSource(18))
	start, err := parsimony.BuildStepwise(pat, rng)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := likelihood.NewEngine(pat, m, likelihood.Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(eng, start, Options{Radius: 5, MaxRounds: 8, SmoothPasses: 3, Epsilon: 0.01, AlphaOpt: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Tree.Validate(); err != nil {
		t.Fatalf("search returned invalid tree: %v", err)
	}
	if err := truth.AlignTaxa(res.Tree.Taxa); err != nil {
		t.Fatal(err)
	}
	d, err := phylotree.RobinsonFoulds(truth, res.Tree)
	if err != nil {
		t.Fatal(err)
	}
	// 12 taxa -> 9 internal edges -> max RF 18. Demand near-perfect recovery.
	if d > 4 {
		t.Errorf("RF distance to true tree = %d (tree: %s)", d, res.Tree.Newick())
	}
	t.Logf("logL=%.3f alpha=%.3f rounds=%d moves=%d RF=%d", res.LogL, res.Alpha, res.Rounds, res.Moves, d)
}

func TestStatisticalConsistency(t *testing.T) {
	// More data must (on average) mean better topology recovery — the
	// end-to-end sanity property of a maximum likelihood implementation.
	// Averaged over several replicates to keep the test stable.
	totalShort, totalLong := 0, 0
	for rep := int64(0); rep < 3; rep++ {
		for _, sites := range []int{150, 2000} {
			rng := rand.New(rand.NewSource(1000 + rep))
			m := seqsim.DefaultModel()
			a, truth, err := seqsim.Generate(seqsim.Params{
				Taxa: 10, Sites: sites, MeanBranch: 0.1, Alpha: 0.8,
			}, m, rng)
			if err != nil {
				t.Fatal(err)
			}
			pat := alignment.Compress(a)
			start, err := parsimony.BuildStepwise(pat, rng)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := likelihood.NewEngine(pat, m, likelihood.Config{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(eng, start, Options{Radius: 4, MaxRounds: 4, SmoothPasses: 3, Epsilon: 0.02})
			if err != nil {
				t.Fatal(err)
			}
			if err := truth.AlignTaxa(pat.Names); err != nil {
				t.Fatal(err)
			}
			rf, err := phylotree.RobinsonFoulds(truth, res.Tree)
			if err != nil {
				t.Fatal(err)
			}
			if sites == 150 {
				totalShort += rf
			} else {
				totalLong += rf
			}
		}
	}
	if totalLong > totalShort {
		t.Errorf("more data gave worse recovery: RF %d (2000 sites) vs %d (150 sites)", totalLong, totalShort)
	}
	if totalLong > 4 {
		t.Errorf("2000-site recovery too poor: total RF %d over 3 replicates", totalLong)
	}
}

func TestSearchImprovesOverStart(t *testing.T) {
	pat, _, m := simulated(t, 19, 10, 400)
	rng := rand.New(rand.NewSource(20))
	start, err := phylotree.RandomTopology(pat.Names, rng)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := likelihood.NewEngine(pat, m, likelihood.Config{})
	if err != nil {
		t.Fatal(err)
	}
	before, err := eng.Evaluate(start.Tips[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(eng, start, Options{Radius: 4, MaxRounds: 6, SmoothPasses: 3, Epsilon: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if res.LogL <= before {
		t.Errorf("search did not improve: %.4f -> %.4f", before, res.LogL)
	}
	if res.Moves == 0 {
		t.Error("random start accepted no SPR moves; suspicious")
	}
}

func TestSearchDeterministic(t *testing.T) {
	pat, _, m := simulated(t, 23, 8, 300)
	run := func() (string, float64) {
		rng := rand.New(rand.NewSource(24))
		start, err := parsimony.BuildStepwise(pat, rng)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := likelihood.NewEngine(pat, m, likelihood.Config{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(eng, start, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Tree.Newick(), res.LogL
	}
	n1, l1 := run()
	n2, l2 := run()
	if n1 != n2 || math.Abs(l1-l2) > 1e-9 {
		t.Errorf("non-deterministic search: %.6f vs %.6f", l1, l2)
	}
}

func TestRunRejectsBadStart(t *testing.T) {
	pat, _, m := simulated(t, 29, 6, 100)
	eng, err := likelihood.NewEngine(pat, m, likelihood.Config{})
	if err != nil {
		t.Fatal(err)
	}
	incomplete, err := phylotree.NewTree(pat.Names)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(eng, incomplete, Options{}); err == nil {
		t.Error("incomplete starting tree accepted")
	}
}

func TestKernelVariantsSameSearchResult(t *testing.T) {
	// The compute backends must not change which tree the search finds:
	// they are loop structures, not approximations.
	pat, _, m := simulated(t, 31, 9, 400)
	var ref string
	for i, backend := range likelihood.Backends() {
		rng := rand.New(rand.NewSource(32))
		start, err := parsimony.BuildStepwise(pat, rng)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := likelihood.NewEngine(pat, m, likelihood.Config{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(eng, start, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = res.Tree.Newick()
		} else if res.Tree.Newick() != ref {
			t.Errorf("backend %s found a different tree", backend)
		}
	}
}
