package core

import (
	"os"
	"testing"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/cell"
	"raxmlcell/internal/cellrt"
	"raxmlcell/internal/phylotree"
	"raxmlcell/internal/search"
	"raxmlcell/internal/workload"
)

// TestFortyTwoSCAnalysis runs a small publishable-analysis workflow
// (2 inferences + 6 bootstraps over 4 workers) on the committed 42_SC
// fixture and checks the analysis artifacts: support values, consensus,
// and the aggregate meter.
func TestFortyTwoSCAnalysis(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-search 42-taxon analysis")
	}
	f, err := os.Open("testdata/42sc.phy")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a, err := alignment.ReadPhylip(f)
	if err != nil {
		t.Fatal(err)
	}
	pat := alignment.Compress(a)
	cfg := DefaultConfig()
	cfg.Inferences = 2
	cfg.Bootstraps = 6
	cfg.Workers = 4
	cfg.Seed = 17
	cfg.Search = search.Options{Radius: 3, MaxRounds: 2, SmoothPasses: 2, Epsilon: 0.05, AlphaOpt: true}
	res, err := Analyze(pat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Support) != 42-3 {
		t.Errorf("support entries = %d, want 39", len(res.Support))
	}
	if res.Consensus == nil || res.Consensus.CountClades() == 0 {
		t.Error("no consensus clades")
	}
	if mean := meanSupport(res.Support); mean < 0.4 {
		t.Errorf("mean support %.2f suspiciously low", mean)
	}
	// Eight searches of 42 taxa: 35 276 since the likelihood cutoff stops the
	// regraft walks (56 343 walking the whole radius, 116 666 before lazy-SPR
	// scoring read the vectors facing the prune point from the engine's slots).
	if res.Meter.NewviewCalls < 20000 {
		t.Errorf("aggregate newview calls = %d; expected a substantial search", res.Meter.NewviewCalls)
	}
	t.Logf("42_SC analysis: best logL %.2f, mean support %.2f, %d consensus clades, %d newview calls",
		res.BestLogL, meanSupport(res.Support), res.Consensus.CountClades(), res.Meter.NewviewCalls)
}

// TestFortyTwoSCIntegration runs the full pipeline on the committed 42_SC
// stand-in fixture (42 taxa x 1167 nt, 249 patterns — the paper's benchmark
// dimensions): parse, infer, compare to the recorded generating tree, trace
// the meter onto the simulated Cell.
func TestFortyTwoSCIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("full 42-taxon inference")
	}
	f, err := os.Open("testdata/42sc.phy")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a, err := alignment.ReadPhylip(f)
	if err != nil {
		t.Fatal(err)
	}
	pat := alignment.Compress(a)
	if pat.NumTaxa != 42 || pat.NumSites != 1167 {
		t.Fatalf("fixture dimensions %dx%d", pat.NumTaxa, pat.NumSites)
	}
	if pat.NumPatterns() != 249 {
		t.Errorf("fixture has %d patterns, expected 249 (paper: ~250)", pat.NumPatterns())
	}

	cfg := DefaultConfig()
	cfg.Seed = 5
	cfg.Search = search.Options{Radius: 4, MaxRounds: 3, SmoothPasses: 3, Epsilon: 0.02, AlphaOpt: true}
	res, meter, err := InferOnce(pat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LogL >= 0 {
		t.Fatalf("logL = %v", res.LogL)
	}

	// Compare against the recorded generating tree.
	raw, err := os.ReadFile("testdata/42sc_true.nwk")
	if err != nil {
		t.Fatal(err)
	}
	truth, err := phylotree.ParseNewick(string(raw))
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
	// 42 taxa -> 39 internal edges -> max RF 78. With 0.02 mean branch
	// lengths some edges are weakly supported; demand substantial recovery.
	if rf > 30 {
		t.Errorf("RF to generating tree = %d (max 78)", rf)
	}
	t.Logf("42_SC: logL=%.2f alpha=%.3f moves=%d RF=%d", res.LogL, res.Alpha, res.Moves, rf)

	// The measured workload must replay on the simulated Cell with the
	// naive-offload penalty and the final speedup both visible.
	prof, err := workload.FromMeter("42sc-real", meter, pat.NumPatterns())
	if err != nil {
		t.Fatal(err)
	}
	ppe, err := cellrt.Run(prof, cell.DefaultCostModel(), cell.DefaultParams(),
		cellrt.Config{Stage: cellrt.StagePPEOnly, Scheduler: cellrt.SchedNaive, Workers: 1, Searches: 1})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := cellrt.Run(prof, cell.DefaultCostModel(), cell.DefaultParams(),
		cellrt.Config{Stage: cellrt.StageNaiveOffload, Scheduler: cellrt.SchedNaive, Workers: 1, Searches: 1})
	if err != nil {
		t.Fatal(err)
	}
	full, err := cellrt.Run(prof, cell.DefaultCostModel(), cell.DefaultParams(),
		cellrt.Config{Stage: cellrt.StageAllOffloaded, Scheduler: cellrt.SchedNaive, Workers: 1, Searches: 1})
	if err != nil {
		t.Fatal(err)
	}
	if naive.Seconds <= ppe.Seconds {
		t.Errorf("traced naive offload (%.3fs) not slower than PPE (%.3fs)", naive.Seconds, ppe.Seconds)
	}
	if full.Seconds >= ppe.Seconds {
		t.Errorf("traced tuned port (%.3fs) not faster than PPE (%.3fs)", full.Seconds, ppe.Seconds)
	}
}

// meanSupport averages the support values of a tree's bipartitions.
func meanSupport(values map[phylotree.Bipartition]float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}
