package search

import (
	"math"
	"math/rand"
	"os"
	"testing"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/likelihood/coldref"
	"raxmlcell/internal/parsimony"
	"raxmlcell/internal/phylotree"
	"raxmlcell/internal/seqsim"
)

// load42SC reads the committed 42_SC fixture (42 taxa x 1167 nt, 249
// patterns — the paper's benchmark dimensions).
func load42SC(t testing.TB) *alignment.Patterns {
	t.Helper()
	f, err := os.Open("../core/testdata/42sc.phy")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a, err := alignment.ReadPhylip(f)
	if err != nil {
		t.Fatal(err)
	}
	return alignment.Compress(a)
}

// TestIncrementalCrossValidation42SC drives the engine and a cold
// reference (a second engine that recomputes every vector before every
// call, on its own copy of the tree) through the same 50-step sequence of
// random SPR prune/regraft moves, undos, hand-edited branch lengths and
// smoothing passes on the 42_SC fixture, checking after every step that
// the two report the same log-likelihood (within 1e-9 relative) on
// identical topologies. This is the end-to-end guarantee that the
// dirty-flag invalidation never serves a stale partial vector.
func TestIncrementalCrossValidation42SC(t *testing.T) {
	if testing.Short() {
		t.Skip("50-step cross validation on 42 taxa")
	}
	pat := load42SC(t)
	m := seqsim.DefaultModel()

	rng := rand.New(rand.NewSource(4242))
	trA, err := parsimony.BuildStepwise(pat, rand.New(rand.NewSource(4242)))
	if err != nil {
		t.Fatal(err)
	}
	trB := trA.Clone()

	engA, err := likelihood.NewEngine(pat, m, likelihood.Config{})
	if err != nil {
		t.Fatal(err)
	}
	engA.AttachTree(trA)
	engB, err := likelihood.NewEngine(pat, m, likelihood.Config{})
	if err != nil {
		t.Fatal(err)
	}

	check := func(step int, stage string) {
		t.Helper()
		llA, err := SmoothBranches(engA, trA, 1, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		// The same single pass, every Newton step from a full recomputation.
		var llB float64
		for _, e := range trB.Edges() {
			if _, llB, err = coldref.MakeNewz(engB, e); err != nil {
				t.Fatal(err)
			}
		}
		if math.Abs(llA-llB) > 1e-9*math.Max(1, math.Abs(llB)) {
			t.Fatalf("step %d (%s): cached logL %.12f != full %.12f", step, stage, llA, llB)
		}
		rf, err := phylotree.RobinsonFoulds(trA, trB)
		if err != nil {
			t.Fatal(err)
		}
		if rf != 0 {
			t.Fatalf("step %d (%s): topologies diverged, RF=%d", step, stage, rf)
		}
	}
	check(-1, "start")

	for step := 0; step < 50; step++ {
		switch step % 5 {
		case 4:
			// Hand-edit a branch length on both trees; the cached engine
			// hears of it through trA's hooks.
			edgesA, edgesB := trA.Edges(), trB.Edges()
			i := rng.Intn(len(edgesA))
			z := 0.01 + 0.3*rng.Float64()
			edgesA[i].SetZ(z)
			edgesB[i].SetZ(z)
			check(step, "setz")
		default:
			candsA, candsB := pruneCandidates(trA), pruneCandidates(trB)
			if len(candsA) != len(candsB) {
				t.Fatalf("step %d: candidate count mismatch %d vs %d", step, len(candsA), len(candsB))
			}
			i := rng.Intn(len(candsA))
			psA, errA := trA.Prune(candsA[i])
			psB, errB := trB.Prune(candsB[i])
			if (errA == nil) != (errB == nil) {
				t.Fatalf("step %d: prune error mismatch: %v vs %v", step, errA, errB)
			}
			if errA != nil {
				continue
			}
			targetsA := radiusEdges(psA.Q, 6)
			targetsA = append(targetsA, radiusEdges(psA.R, 6)...)
			targetsB := radiusEdges(psB.Q, 6)
			targetsB = append(targetsB, radiusEdges(psB.R, 6)...)
			if len(targetsA) != len(targetsB) {
				t.Fatalf("step %d: target count mismatch %d vs %d", step, len(targetsA), len(targetsB))
			}
			if step%3 == 0 || len(targetsA) == 0 {
				if err := trA.Undo(psA); err != nil {
					t.Fatal(err)
				}
				if err := trB.Undo(psB); err != nil {
					t.Fatal(err)
				}
				check(step, "undo")
				continue
			}
			j := rng.Intn(len(targetsA))
			if err := trA.Regraft(psA, targetsA[j]); err != nil {
				t.Fatal(err)
			}
			if err := trB.Regraft(psB, targetsB[j]); err != nil {
				t.Fatal(err)
			}
			check(step, "regraft")
		}
	}

	if engA.Meter.CacheHits == 0 {
		t.Error("cross validation exercised no cache hits")
	}
	if engA.Meter.NewviewCalls >= engB.Meter.NewviewCalls {
		t.Errorf("engine performed %d combines, cold reference %d",
			engA.Meter.NewviewCalls, engB.Meter.NewviewCalls)
	}
	t.Logf("combines: cached %d vs full %d (%.1fx reduction), %d cache hits",
		engA.Meter.NewviewCalls, engB.Meter.NewviewCalls,
		float64(engB.Meter.NewviewCalls)/float64(engA.Meter.NewviewCalls),
		engA.Meter.CacheHits)
}

// TestIncrementalSmoothingCombineReduction bounds what smoothing may cost
// on a default engine, in absolute terms so that a silently disabled cache
// fails here rather than only in the benchmark: four passes over the 42_SC
// tree must stay within two newview combines per Newton solve plus one
// full traversal to fill the cache (measured: 1.6 per solve), where
// recomputing the tree for every solve costs 40 per solve. The smoothed
// likelihood must equal a full recomputation's.
func TestIncrementalSmoothingCombineReduction(t *testing.T) {
	pat := load42SC(t)
	m := seqsim.DefaultModel()
	tr, err := parsimony.BuildStepwise(pat, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := likelihood.NewEngine(pat, m, likelihood.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ll, err := SmoothBranches(eng, tr, 4, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Meter.CacheHits == 0 {
		t.Error("no cache hits during smoothing")
	}
	got, solves, inner := eng.Meter.NewviewCalls, eng.Meter.MakenewzCalls, uint64(tr.NumTips()-2)
	if got > 2*solves+inner {
		t.Errorf("smoothing ran %d newview combines for %d Newton solves, want <= 2 per solve + %d",
			got, solves, inner)
	}
	t.Logf("smoothing combines: %d for %d solves (%.2f per solve; full recomputation %d)",
		got, solves, float64(got)/float64(solves), solves*inner)

	edges := tr.Edges()
	last := edges[len(edges)-1]
	ref, err := likelihood.NewEngine(pat, m, likelihood.Config{Backend: "scalar"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := coldref.Evaluate(ref, last)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ll-want) > 1e-9*math.Abs(want) {
		t.Fatalf("smoothed logL differ: cached %.12f vs full %.12f", ll, want)
	}
}

// radiusEdges returns the insertion edges within radius of origin.
func radiusEdges(origin *phylotree.Node, radius int) []*phylotree.Node {
	out, _ := phylotree.RadiusEdgesInto(nil, nil, origin, radius)
	return out
}
