package core

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/cell"
	"raxmlcell/internal/cellrt"
	"raxmlcell/internal/mw"
	"raxmlcell/internal/obs"
	"raxmlcell/internal/phylotree"
	"raxmlcell/internal/search"
	"raxmlcell/internal/seqsim"
	"raxmlcell/internal/workload"
)

func testPatterns(t *testing.T, taxa, sites int, seed int64) (*alignment.Patterns, *phylotree.Tree) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a, truth, err := seqsim.Generate(seqsim.Params{
		Taxa: taxa, Sites: sites, MeanBranch: 0.12, Alpha: 0.8,
	}, seqsim.DefaultModel(), rng)
	if err != nil {
		t.Fatal(err)
	}
	return alignment.Compress(a), truth
}

func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Inferences = 2
	cfg.Bootstraps = 5
	cfg.Workers = 4
	cfg.Search = search.Options{Radius: 3, MaxRounds: 2, SmoothPasses: 2, Epsilon: 0.05}
	return cfg
}

func TestAnalyzeEndToEnd(t *testing.T) {
	pat, truth := testPatterns(t, 10, 600, 7)
	cfg := fastConfig()
	cfg.Metrics = obs.NewRegistry()
	a, err := Analyze(pat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Bootstrap replicates were deduplicated before support/consensus; the
	// counter reports how many were folded into an earlier duplicate (0 is
	// fine on low-agreement data, absence is not).
	snap := cfg.Metrics.Snapshot()
	dedup, ok := snap.CounterValue("bootstrap.dedup_topologies")
	if !ok {
		t.Error("bootstrap.dedup_topologies counter missing")
	} else if dedup > 5 {
		t.Errorf("deduplicated %d of 5 replicates", dedup)
	}
	if a.Best == nil || a.BestLogL >= 0 {
		t.Fatalf("bad best tree: logL=%v", a.BestLogL)
	}
	if err := a.Best.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(a.Results) != 7 {
		t.Errorf("results = %d", len(a.Results))
	}
	if len(a.Support) != 10-3 {
		t.Errorf("support entries = %d, want 7", len(a.Support))
	}
	if a.Consensus == nil {
		t.Fatal("no consensus tree despite 5 bootstraps")
	}
	if a.Consensus.CountClades() == 0 {
		t.Error("consensus has no majority clades on high-signal data")
	}
	if a.Meter.NewviewCalls == 0 {
		t.Error("aggregate meter empty")
	}
	// Recovered topology should be close to the truth on strong signal.
	if err := truth.AlignTaxa(pat.Names); err != nil {
		t.Fatal(err)
	}
	d, err := phylotree.RobinsonFoulds(truth, a.Best)
	if err != nil {
		t.Fatal(err)
	}
	if d > 6 {
		t.Errorf("best tree RF distance to truth = %d", d)
	}
	// BestLogL must be the max over inference results.
	for _, r := range a.Results {
		if r.Job.Kind.String() == "inference" && r.LogL > a.BestLogL {
			t.Error("Analyze did not pick the best inference")
		}
	}
}

func TestAnalyzeValidation(t *testing.T) {
	pat, _ := testPatterns(t, 6, 100, 8)
	if _, err := Analyze(nil, fastConfig()); err == nil {
		t.Error("nil patterns accepted")
	}
	cfg := fastConfig()
	cfg.Inferences = 0
	if _, err := Analyze(pat, cfg); err == nil {
		t.Error("0 inferences accepted")
	}
}

func TestAnalyzeNoBootstraps(t *testing.T) {
	pat, _ := testPatterns(t, 7, 200, 9)
	cfg := fastConfig()
	cfg.Bootstraps = 0
	a, err := Analyze(pat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Support != nil {
		t.Error("support computed without bootstraps")
	}
}

func TestInferOnceAndCellBridge(t *testing.T) {
	pat, _ := testPatterns(t, 9, 300, 10)
	cfg := fastConfig()
	res, meter, err := InferOnce(pat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LogL >= 0 || meter.NewviewCalls == 0 {
		t.Fatalf("bad inference: %v / %v", res.LogL, meter)
	}
	// Bridge the measured workload onto the simulated Cell.
	prof, err := workload.FromMeter("measured", meter, pat.NumPatterns())
	if err != nil {
		t.Fatal(err)
	}
	ppe, err := cellrt.Run(prof, cell.DefaultCostModel(), cell.DefaultParams(),
		cellrt.Config{Stage: cellrt.StagePPEOnly, Scheduler: cellrt.SchedNaive, Workers: 1, Searches: 1})
	if err != nil {
		t.Fatal(err)
	}
	full, err := cellrt.Run(prof, cell.DefaultCostModel(), cell.DefaultParams(),
		cellrt.Config{Stage: cellrt.StageAllOffloaded, Scheduler: cellrt.SchedMGPS, Workers: 1, Searches: 8})
	if err != nil {
		t.Fatal(err)
	}
	if ppe.Seconds <= 0 || full.Seconds <= 0 {
		t.Error("degenerate simulated timings")
	}
	// 8 searches under MGPS should take less than 8x one PPE search.
	if full.Seconds >= 8*ppe.Seconds {
		t.Errorf("MGPS (%.3fs for 8) not faster than 8x PPE-only (%.3fs each)", full.Seconds, ppe.Seconds)
	}
}

// TestInferCAT: the CAT re-fit keeps the topology it is given, fits branch
// lengths on a copy, and leaves the given tree's bytes alone.
func TestInferCAT(t *testing.T) {
	pat, _ := testPatterns(t, 9, 500, 12)
	cfg := fastConfig()
	res, _, err := InferOnce(pat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := res.Tree.Newick()
	refit, catLL, err := InferCAT(pat, cfg, res.Tree, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := refit.Validate(); err != nil {
		t.Fatal(err)
	}
	if d, err := phylotree.RobinsonFoulds(res.Tree, refit); err != nil || d != 0 {
		t.Errorf("re-fit tree at RF %d from the given tree (%v)", d, err)
	}
	if got := res.Tree.Newick(); got != before {
		t.Errorf("given tree changed:\n got %s\nwant %s", got, before)
	}
	if refit.Newick() == before {
		t.Error("re-fit tree has the Gamma branch lengths")
	}
	if catLL >= 0 || math.IsNaN(catLL) {
		t.Errorf("CAT logL = %v", catLL)
	}
	if _, _, err := InferCAT(pat, cfg, res.Tree, nil, 1); err == nil {
		t.Error("CAT with 1 category accepted")
	}
}

// TestInferCATNilRatesAreUnit: nil rates are the unit exchangeabilities of
// a search that fitted none, bit for bit, and the rates InferCAT is given
// are read, not written.
func TestInferCATNilRatesAreUnit(t *testing.T) {
	pat, _ := testPatterns(t, 8, 300, 13)
	cfg := fastConfig()
	res, _, err := InferOnce(pat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nilTree, nilLL, err := InferCAT(pat, cfg, res.Tree, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	unit := [6]float64{1, 1, 1, 1, 1, 1}
	unitTree, unitLL, err := InferCAT(pat, cfg, res.Tree, &unit, 10)
	if err != nil {
		t.Fatal(err)
	}
	if nilLL != unitLL || nilTree.Newick() != unitTree.Newick() {
		t.Errorf("nil rates fit %v, unit rates %v", nilLL, unitLL)
	}
	fitted := [6]float64{0.8, 6, 0.6, 0.9, 5, 1}
	given := fitted
	if _, _, err := InferCAT(pat, cfg, res.Tree, &given, 10); err != nil {
		t.Fatal(err)
	}
	if given != fitted {
		t.Errorf("InferCAT changed the rates it was given: %v, was %v", given, fitted)
	}
}

// TestOptModelRatesReachCAT: with ModelOpt every job's fitted GTR
// exchangeabilities travel with its result, the best inference's reach
// Analysis.Rates and survive a resume from the checkpoint, and InferCAT fits
// the categories under them. Without ModelOpt no result carries rates, so a
// default campaign's checkpoint has no rates field.
func TestOptModelRatesReachCAT(t *testing.T) {
	pat, _ := testPatterns(t, 8, 400, 21)
	cfg := fastConfig()
	cfg.Bootstraps = 1
	cfg.Workers = 2
	cfg.Search.ModelOpt = true
	cfg.Checkpoint = filepath.Join(t.TempDir(), "fitted.json")
	a, err := Analyze(pat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rates == nil || *a.Rates == [6]float64{1, 1, 1, 1, 1, 1} {
		t.Fatalf("Analysis.Rates = %v, want the fitted exchangeabilities", a.Rates)
	}
	for _, r := range a.Results {
		if r.Err == nil && r.Rates == nil {
			t.Errorf("%v job %d carries no rates", r.Job.Kind, r.Job.Index)
		}
	}
	if best, err := mw.Best(a.Results, mw.Inference); err != nil || *best.Rates != *a.Rates {
		t.Errorf("Analysis.Rates %v are not the best inference's (%v)", *a.Rates, err)
	}
	resumed, err := Analyze(pat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Rates == nil || *resumed.Rates != *a.Rates {
		t.Errorf("resumed rates %v, want %v", resumed.Rates, *a.Rates)
	}
	_, fitted, err := InferCAT(pat, cfg, a.Best, a.Rates, 10)
	if err != nil {
		t.Fatal(err)
	}
	_, unit, err := InferCAT(pat, cfg, a.Best, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if fitted == unit {
		t.Errorf("CAT logL %v under the fitted rates equals the unit rates' fit", fitted)
	}

	cfg.Search.ModelOpt = false
	cfg.Checkpoint = filepath.Join(t.TempDir(), "plain.json")
	plain, err := Analyze(pat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Rates != nil {
		t.Errorf("Analysis.Rates = %v without ModelOpt", *plain.Rates)
	}
	raw, err := os.ReadFile(cfg.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte(`"rates"`)) {
		t.Error("a campaign without ModelOpt wrote rates into its checkpoint")
	}
}

func TestStartingTreeKinds(t *testing.T) {
	pat, _ := testPatterns(t, 8, 300, 13)
	rng := rand.New(rand.NewSource(1))
	for _, kind := range []string{"", "parsimony", "nj", "random"} {
		tr, err := search.StartingTree(pat, kind, rng)
		if err != nil {
			t.Fatalf("%q: %v", kind, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%q: %v", kind, err)
		}
		if tr.Taxa[0] != pat.Names[0] {
			t.Errorf("%q: taxa not aligned to alignment order", kind)
		}
	}
	if _, err := search.StartingTree(pat, "bogus", rng); err == nil {
		t.Error("unknown kind accepted")
	}
	// NJ starting trees feed the full search path.
	cfg := fastConfig()
	cfg.StartTree = "nj"
	res, _, err := InferOnce(pat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LogL >= 0 {
		t.Errorf("NJ-start inference logL = %v", res.LogL)
	}
}

func TestModelFor(t *testing.T) {
	pat, _ := testPatterns(t, 6, 200, 11)
	m, err := ModelFor(pat, 0.7, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumCats() != 4 {
		t.Errorf("cats = %d", m.NumCats())
	}
	sum := 0.0
	for _, f := range m.GTR.Freqs {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("frequencies sum to %v", sum)
	}
	// Default category count.
	m2, err := ModelFor(pat, 0.7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m2.NumCats() != 4 {
		t.Errorf("default cats = %d", m2.NumCats())
	}
}
