package mw

import (
	"context"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/model"
	"raxmlcell/internal/search"
	"raxmlcell/internal/seqsim"
)

// uncompactedJob is runJob as it was before bootstrap jobs ran on their
// drawn patterns: engine and start tree see every pattern of the replicate,
// the undrawn ones at weight 0.
func uncompactedJob(t *testing.T, pat *alignment.Patterns, mod *model.Model, job Job, cfg Config) JobResult {
	t.Helper()
	rng := rand.New(rand.NewSource(job.Seed))
	work := pat
	if job.Kind == Bootstrap {
		work = alignment.BootstrapReplicate(pat, rng)
	}
	eng, err := likelihood.NewEngine(work, mod, cfg.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	start, err := search.StartingTree(work, cfg.StartTree, rng)
	if err != nil {
		t.Fatal(err)
	}
	out, err := search.Run(eng, start, cfg.Search)
	if err != nil {
		t.Fatal(err)
	}
	return JobResult{Job: job, Newick: out.Tree.Newick(), LogL: out.LogL, Alpha: out.Alpha, Meter: eng.Meter}
}

// TestDrawnCampaignMatchesUncompacted42SC: on 42_SC (one block of patterns)
// a 2 + 4 campaign whose bootstrap jobs run on their drawn patterns returns
// the trees, logL and alpha bits of jobs run on the whole replicate, with
// fewer flops.
func TestDrawnCampaignMatchesUncompacted42SC(t *testing.T) {
	f, err := os.Open("../core/testdata/42sc.phy")
	if err != nil {
		t.Fatal(err)
	}
	a, err := alignment.ReadPhylip(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	pat, mod := alignment.Compress(a), seqsim.DefaultModel()
	jobs := Plan(2, 4, 31)
	cfg := Config{Workers: 2, Search: fastSearch()}
	rep, err := Supervise(pat, mod, jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	results := rep.Results
	for i, got := range results {
		if got.Err != nil {
			t.Fatal(got.Err)
		}
		want := uncompactedJob(t, pat, mod, jobs[i], cfg)
		if got.Newick != want.Newick {
			t.Errorf("%s %d: tree differs from the uncompacted job", got.Job.Kind, got.Job.Index)
		}
		if math.Float64bits(got.LogL) != math.Float64bits(want.LogL) || math.Float64bits(got.Alpha) != math.Float64bits(want.Alpha) {
			t.Errorf("%s %d: logL %.17g alpha %.17g, uncompacted %.17g %.17g", got.Job.Kind, got.Job.Index, got.LogL, got.Alpha, want.LogL, want.Alpha)
		}
		if got.Job.Kind == Bootstrap && got.Meter.Flops() >= want.Meter.Flops() {
			t.Errorf("bootstrap %d: %d flops, uncompacted %d", got.Job.Index, got.Meter.Flops(), want.Meter.Flops())
		}
	}
}

// TestDrawnMultiBlockReplicate: a replicate of seqgen's 24 × 4 000 (2 288
// patterns, five blocks) regroups its block sums when compacted, so it is
// held to 1e-12 relative of its uncompacted twin — and to the bit across
// GOMAXPROCS, like every multi-block engine.
func TestDrawnMultiBlockReplicate(t *testing.T) {
	a, _, err := seqsim.Generate(seqsim.Params{Taxa: 24, Sites: 4000, MeanBranch: 0.1, Alpha: 0.8, InvariantFraction: 0.1},
		seqsim.DefaultModel(), rand.New(rand.NewSource(4252)))
	if err != nil {
		t.Fatal(err)
	}
	pat, mod := alignment.Compress(a), seqsim.DefaultModel()
	if pat.NumPatterns() != 2288 {
		t.Fatalf("%d patterns, want seqgen's 2288", pat.NumPatterns())
	}
	job := Plan(0, 1, 3)[0]
	cfg := Config{Search: search.Options{Radius: 3, MaxRounds: 2, SmoothPasses: 2, Epsilon: 0.05}}
	run := func(procs int) JobResult {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		r := runJob(context.Background(), pat, mod, job, cfg, cfg.Trace)
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		return r
	}
	one, four := run(1), run(4)
	if one.Newick != four.Newick || math.Float64bits(one.LogL) != math.Float64bits(four.LogL) || one.Meter != four.Meter {
		t.Errorf("GOMAXPROCS 1 and 4 differ: logL %.17g vs %.17g", one.LogL, four.LogL)
	}
	twin := uncompactedJob(t, pat, mod, job, cfg)
	if d := math.Abs(one.LogL-twin.LogL) / math.Abs(twin.LogL); d > 1e-12 {
		t.Errorf("logL %.17g, uncompacted %.17g: %.3g relative", one.LogL, twin.LogL, d)
	}
	t.Logf("logL %.17g, uncompacted %.17g; flops %d vs %d", one.LogL, twin.LogL, one.Meter.Flops(), twin.Meter.Flops())
}
