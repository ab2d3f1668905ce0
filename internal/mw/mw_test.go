package mw

import (
	"math"
	"math/rand"
	"testing"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/bio"
	"raxmlcell/internal/model"
	"raxmlcell/internal/phylotree"
	"raxmlcell/internal/search"
	"raxmlcell/internal/seqsim"
)

func testData(t *testing.T, taxa, sites int) (*alignment.Patterns, *model.Model) {
	t.Helper()
	rng := rand.New(rand.NewSource(55))
	m := seqsim.DefaultModel()
	a, _, err := seqsim.Generate(seqsim.Params{
		Taxa: taxa, Sites: sites, MeanBranch: 0.1, Alpha: 0.8,
	}, m, rng)
	if err != nil {
		t.Fatal(err)
	}
	return alignment.Compress(a), m
}

func fastSearch() search.Options {
	return search.Options{Radius: 3, MaxRounds: 2, SmoothPasses: 2, Epsilon: 0.05}
}

func TestPlan(t *testing.T) {
	jobs := Plan(3, 5, 42)
	if len(jobs) != 8 {
		t.Fatalf("len = %d", len(jobs))
	}
	seeds := map[int64]bool{}
	inf, boot := 0, 0
	for _, j := range jobs {
		if seeds[j.Seed] {
			t.Errorf("duplicate seed %d", j.Seed)
		}
		seeds[j.Seed] = true
		switch j.Kind {
		case Inference:
			inf++
		case Bootstrap:
			boot++
		}
	}
	if inf != 3 || boot != 5 {
		t.Errorf("inf=%d boot=%d", inf, boot)
	}
	if Inference.String() != "inference" || Bootstrap.String() != "bootstrap" {
		t.Error("JobKind.String wrong")
	}
}

func TestRunCollectsAllJobs(t *testing.T) {
	pat, m := testData(t, 8, 300)
	jobs := Plan(2, 3, 7)
	rep, err := Supervise(pat, m, jobs, Config{Workers: 3, Search: fastSearch()})
	if err != nil {
		t.Fatal(err)
	}
	results := rep.Results
	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d failed: %v", i, r.Err)
		}
		if r.Newick == "" || math.IsNaN(r.LogL) || r.LogL >= 0 {
			t.Errorf("job %d result malformed: logL=%v", i, r.LogL)
		}
		if r.Meter.NewviewCalls == 0 {
			t.Errorf("job %d has empty meter", i)
		}
	}
	// Sorted by (kind, index).
	for i := 1; i < len(results); i++ {
		a, b := results[i-1].Job, results[i].Job
		if a.Kind > b.Kind || (a.Kind == b.Kind && a.Index >= b.Index) {
			t.Error("results not sorted")
		}
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	pat, m := testData(t, 7, 200)
	jobs := Plan(1, 2, 99)
	r1Rep, err := Supervise(pat, m, jobs, Config{Workers: 1, Search: fastSearch()})
	if err != nil {
		t.Fatal(err)
	}
	r1 := r1Rep.Results
	r4Rep, err := Supervise(pat, m, jobs, Config{Workers: 4, Search: fastSearch()})
	if err != nil {
		t.Fatal(err)
	}
	r4 := r4Rep.Results
	for i := range r1 {
		if r1[i].Newick != r4[i].Newick || math.Abs(r1[i].LogL-r4[i].LogL) > 1e-9 {
			t.Errorf("job %d differs across worker counts", i)
		}
	}
}

func TestBootstrapResultsDiffer(t *testing.T) {
	pat, m := testData(t, 8, 300)
	jobs := Plan(0, 4, 13)
	rep, err := Supervise(pat, m, jobs, Config{Workers: 2, Search: fastSearch()})
	if err != nil {
		t.Fatal(err)
	}
	results := rep.Results
	lls := map[float64]bool{}
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		lls[r.LogL] = true
	}
	if len(lls) < 2 {
		t.Error("all bootstrap replicates produced identical likelihoods; resampling suspect")
	}
}

func TestBest(t *testing.T) {
	pat, m := testData(t, 7, 200)
	rep, err := Supervise(pat, m, Plan(3, 0, 5), Config{Workers: 2, Search: fastSearch()})
	if err != nil {
		t.Fatal(err)
	}
	results := rep.Results
	best, err := Best(results, Inference)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.LogL > best.LogL {
			t.Error("Best did not return the maximum")
		}
	}
	if _, err := Best(results, Bootstrap); err == nil {
		t.Error("Best over absent kind succeeded")
	}
}

func TestRunErrors(t *testing.T) {
	pat, m := testData(t, 6, 100)
	if _, err := Supervise(nil, m, Plan(1, 0, 1), Config{}); err == nil {
		t.Error("nil patterns accepted")
	}
	if _, err := Supervise(pat, nil, Plan(1, 0, 1), Config{}); err == nil {
		t.Error("nil model accepted")
	}
}

func TestJobFailureIsReportedNotFatal(t *testing.T) {
	// A 2-taxon "alignment" cannot seed a tree search: every job must carry
	// an error in its result while Run itself succeeds.
	s1, err := bio.NewSequence("a", "ACGTACGT")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := bio.NewSequence("b", "ACGTACGA")
	if err != nil {
		t.Fatal(err)
	}
	a, err := alignment.New([]*bio.Sequence{s1, s2})
	if err != nil {
		t.Fatal(err)
	}
	pat := alignment.Compress(a)
	_, m := testData(t, 6, 100)
	rep, err := Supervise(pat, m, Plan(2, 1, 3), Config{Workers: 2, Search: fastSearch()})
	if err != nil {
		t.Fatal(err)
	}
	results := rep.Results
	for _, r := range results {
		if r.Err == nil {
			t.Errorf("%v job %d unexpectedly succeeded on 2 taxa", r.Job.Kind, r.Job.Index)
		}
	}
	if _, err := Best(results, Inference); err == nil {
		t.Error("Best over all-failed results succeeded")
	}
}

func TestEndToEndSupportValues(t *testing.T) {
	// Full mini-analysis: inferences + bootstraps + support on best tree.
	pat, m := testData(t, 8, 400)
	rep, err := Supervise(pat, m, Plan(1, 6, 77), Config{Workers: 4, Search: fastSearch()})
	if err != nil {
		t.Fatal(err)
	}
	results := rep.Results
	best, err := Best(results, Inference)
	if err != nil {
		t.Fatal(err)
	}
	bestTree, err := phylotree.ParseNewick(best.Newick)
	if err != nil {
		t.Fatal(err)
	}
	if err := bestTree.AlignTaxa(pat.Names); err != nil {
		t.Fatal(err)
	}
	var boots []*phylotree.Tree
	for _, r := range results {
		if r.Job.Kind != Bootstrap {
			continue
		}
		bt, err := phylotree.ParseNewick(r.Newick)
		if err != nil {
			t.Fatal(err)
		}
		if err := bt.AlignTaxa(pat.Names); err != nil {
			t.Fatal(err)
		}
		boots = append(boots, bt)
	}
	support, err := phylotree.SupportValuesWeighted(bestTree, boots, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(support) != 8-3 { // n-3 internal edges
		t.Errorf("support entries = %d, want %d", len(support), 5)
	}
	for b, v := range support {
		if v < 0 || v > 1 {
			t.Errorf("support %v out of range for %q", v, b)
		}
	}
	sum := 0.0
	for _, v := range support {
		sum += v
	}
	if mean := sum / float64(len(support)); mean <= 0.2 {
		t.Errorf("mean support %.3f suspiciously low for high-signal data", mean)
	}
}
