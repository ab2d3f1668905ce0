package search

import (
	"math"
	"math/rand"
	"testing"

	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/parsimony"
	"raxmlcell/internal/seqsim"
)

// run42SCSearch executes the benchmark-shaped SPR search on the 42_SC
// fixture under one backend. The starting tree is
// rebuilt from the same seed every call, so any divergence between
// configurations is attributable to the kernels, not the workload.
func run42SCSearch(t *testing.T, backend string) *Result {
	t.Helper()
	pat := load42SC(t)
	m := seqsim.DefaultModel()
	start, err := parsimony.BuildStepwise(pat, rand.New(rand.NewSource(63)))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := likelihood.NewEngine(pat, m, likelihood.Config{Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(eng, start, Options{
		Radius: 3, MaxRounds: 2, SmoothPasses: 2, Epsilon: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestBackendCrossValidation42SC is the release gate for compute backends:
// every registered backend must drive the full 42_SC SPR search to the
// same optimum as the scalar reference — identical accepted-move and round
// counts (the hill-climb took the exact same path, so every intermediate
// comparison agreed) and a final log-likelihood within 1e-9 relative.
func TestBackendCrossValidation42SC(t *testing.T) {
	if testing.Short() {
		t.Skip("full 42sc search per backend")
	}
	ref := run42SCSearch(t, "scalar")
	t.Logf("scalar reference: logL=%.6f moves=%d rounds=%d", ref.LogL, ref.Moves, ref.Rounds)
	for _, bk := range likelihood.Backends() {
		if bk == "scalar" {
			continue
		}
		res := run42SCSearch(t, bk)
		if res.Moves != ref.Moves || res.Rounds != ref.Rounds {
			t.Errorf("%s: search path diverged: %d moves/%d rounds, scalar %d/%d",
				bk, res.Moves, res.Rounds, ref.Moves, ref.Rounds)
		}
		if math.Abs(res.LogL-ref.LogL) > 1e-9*math.Max(1, math.Abs(ref.LogL)) {
			t.Errorf("%s: logL %.12f != scalar %.12f", bk, res.LogL, ref.LogL)
		}
	}
}
