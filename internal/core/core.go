// Package core is the top-level engine of the RAxML-Cell reproduction: it
// ties the alignment, model, search, and master-worker layers into the full
// phylogenetic analysis the paper runs — multiple inferences plus
// non-parametric bootstrapping, yielding the best-known ML tree with support
// values. The simulated Cell is not its business: cellsim feeds an
// InferOnce meter to cellrt through workload.FromMeter itself.
package core

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"time"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/fault"
	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/model"
	"raxmlcell/internal/mw"
	"raxmlcell/internal/obs"
	"raxmlcell/internal/phylotree"
	"raxmlcell/internal/search"
	"raxmlcell/internal/wallclock"
)

// Config parameterizes an analysis.
type Config struct {
	Inferences int   // tree searches on the original alignment (>=1)
	Bootstraps int   // bootstrap replicates (>=0)
	Seed       int64 // master seed; every job seed derives from it
	Workers    int   // parallel workers (the MPI process count)

	Alpha float64 // initial Gamma shape (optimized during search)
	Cats  int     // Gamma categories (default 4)

	// StartTree selects the starting topology: "parsimony" (randomized
	// stepwise addition, RAxML's method and the default), "nj"
	// (neighbor joining on Jukes-Cantor distances), or "random".
	StartTree string

	// Checkpoint, when non-empty, persists every completed job to this
	// file and resumes from it on restart (see mw.SuperviseWithCheckpoint).
	// A damaged checkpoint file is set aside and recomputed, not fatal.
	Checkpoint string

	// Retries is the attempt budget per job before it is quarantined;
	// values below 1 mean a single attempt (no retries). Retried jobs
	// reproduce bit-identical results because every job is a pure
	// function of its seed.
	Retries int

	// JobTimeout is the per-attempt deadline: a running attempt is stopped
	// there (a search within one prune) and retried; zero disables it.
	JobTimeout time.Duration

	// MaxQuarantine is the number of quarantined (permanently failed)
	// jobs tolerated before the campaign aborts. 0 — the default — aborts
	// on the first quarantined job; a negative value disables the limit,
	// so the analysis completes with a partial-results report.
	MaxQuarantine int

	// Fault injects deterministic faults into the campaign (chaos tests
	// only; leave nil for real analyses).
	Fault *fault.Injector

	// Clock overrides the supervision time source; nil selects the wall
	// clock. Tests inject deterministic clocks here.
	Clock fault.Clock

	Search search.Options

	// Kernel selects the likelihood-kernel variants for every worker
	// engine.
	Kernel likelihood.Config

	// Log receives structured campaign progress (phases, supervision
	// events, per-step search trajectories at Debug). nil disables
	// logging.
	Log *slog.Logger

	// Metrics, when non-nil, is fed live during the analysis — the mw.*
	// supervision counters, kernel.* meter totals, search.* trajectory
	// series and the latency histograms (mw.attempt_ms, search.round_ms,
	// checkpoint.save_ms, kernel.<backend>.<op>_ms) the -debug-addr
	// /metrics endpoint serves.
	Metrics *obs.Registry

	// Trace is the wall-clock span context the whole analysis records into
	// (campaign, per-worker job attempts, search rounds; see obs.SpanTracer).
	// The zero Ctx disables timeline capture — but when Metrics is set,
	// Analyze still mints a non-recording tracer over wallclock.Monotonic
	// internally so the latency histograms have a time source.
	Trace obs.Ctx

	// Flight, when non-nil, receives the supervision event stream for
	// post-mortems (see obs.FlightRecorder and mw.Config.Flight).
	Flight *obs.FlightRecorder
}

// DefaultConfig is a publishable-analysis shape at laptop scale.
func DefaultConfig() Config {
	return Config{
		Inferences: 3,
		Bootstraps: 20,
		Seed:       42,
		Workers:    4,
		Alpha:      0.8,
		Cats:       4,
		Retries:    1, // no retries; raise for flaky environments
		Search:     search.DefaultOptions(),
	}
}

// Analysis is the outcome of a full run.
type Analysis struct {
	Best     *phylotree.Tree // best-known ML tree (aligned to the alignment's taxa)
	BestLogL float64
	Alpha    float64 // fitted Gamma shape of the best inference
	// Rates are the best inference's fitted GTR exchangeabilities, nil
	// unless the search fitted them (search.Options.ModelOpt).
	Rates   *[6]float64
	Support map[phylotree.Bipartition]float64
	// Consensus is the majority-rule consensus of the bootstrap trees
	// (nil when fewer than two bootstraps were run).
	Consensus *phylotree.ConsensusNode
	Results   []mw.JobResult   // every job, ordered (inferences then bootstraps)
	Meter     likelihood.Meter // aggregate kernel operations across all jobs

	// Quarantined lists jobs that exhausted their attempt budget; when
	// non-empty (and within Config.MaxQuarantine) the analysis is a
	// partial-results report over the surviving jobs.
	Quarantined []mw.Quarantine
	// Stats carries the supervision accounting: attempts, retries,
	// timeouts, and checkpoint failures/recovery.
	Stats mw.Stats
}

// ModelFor builds a GTR+Γ model with empirical base frequencies from the
// alignment and unit exchangeabilities (the starting point RAxML also uses
// before model optimization).
func ModelFor(pat *alignment.Patterns, alpha float64, cats int) (*model.Model, error) {
	return modelWith(pat, nil, alpha, cats)
}

// modelWith is ModelFor with the given GTR exchangeabilities, unit ones if
// rates is nil.
func modelWith(pat *alignment.Patterns, rates *[6]float64, alpha float64, cats int) (*model.Model, error) {
	if cats <= 0 {
		cats = 4
	}
	r := [6]float64{1, 1, 1, 1, 1, 1}
	if rates != nil {
		r = *rates
	}
	g, err := model.NewGTR(r, pat.BaseFrequencies())
	if err != nil {
		return nil, err
	}
	return model.NewModel(g, alpha, cats)
}

// Analyze runs the complete master-worker analysis on the alignment.
func Analyze(pat *alignment.Patterns, cfg Config) (*Analysis, error) {
	if pat == nil {
		return nil, fmt.Errorf("core: nil patterns")
	}
	if cfg.Inferences < 1 {
		return nil, fmt.Errorf("core: need at least one inference")
	}
	mod, err := ModelFor(pat, cfg.Alpha, cfg.Cats)
	if err != nil {
		return nil, err
	}
	jobs := mw.Plan(cfg.Inferences, cfg.Bootstraps, cfg.Seed)
	// Timeline capture is the caller's choice (cfg.Trace), but the latency
	// histograms need a monotonic time source regardless; a metrics-only run
	// gets a non-recording tracer, which times spans without retaining them.
	if !cfg.Trace.Enabled() && cfg.Metrics != nil {
		tr := obs.NewSpanTracer(wallclock.Monotonic())
		tr.SetRecording(false)
		cfg.Trace = tr.Root("campaign")
	}
	mwCfg := mw.Config{
		Workers:   cfg.Workers,
		StartTree: cfg.StartTree,
		Search:    cfg.Search,
		Kernel:    cfg.Kernel,
		Retry: mw.RetryPolicy{
			MaxAttempts: cfg.Retries,
			JobTimeout:  cfg.JobTimeout,
			Backoff:     200 * time.Millisecond,
			MaxBackoff:  5 * time.Second,
		},
		Fault:   cfg.Fault,
		Clock:   cfg.Clock,
		Log:     cfg.Log,
		Metrics: cfg.Metrics,
		Trace:   cfg.Trace,
		Flight:  cfg.Flight,
	}
	// Feed the search-level series (candidates scored and solved, executor
	// blocks) into the same registry the mw.* counters use, unless the
	// caller routed them elsewhere explicitly.
	if mwCfg.Search.Metrics == nil {
		mwCfg.Search.Metrics = cfg.Metrics
	}
	if cfg.Log == nil {
		cfg.Log = obs.Discard()
	}
	if cfg.Metrics != nil || cfg.Log.Enabled(context.Background(), slog.LevelDebug) {
		log, reg := cfg.Log, cfg.Metrics
		mwCfg.OnProgress = func(job mw.Job, pr search.Progress) {
			if reg != nil {
				reg.Counter("search.progress_events").Inc()
				reg.Gauge(obs.Key("search.logl", "kind", job.Kind.String(),
					"index", fmt.Sprint(job.Index))).Set(pr.LogL)
			}
			log.Debug("search progress", "kind", job.Kind.String(), "index", job.Index,
				"phase", pr.Phase, "round", pr.Round, "moves", pr.Moves,
				"logl", pr.LogL, "alpha", pr.Alpha)
		}
	}
	if cfg.MaxQuarantine >= 0 {
		mwCfg.Retry.LimitQuarantine = true
		mwCfg.Retry.MaxQuarantine = cfg.MaxQuarantine
	}
	if mwCfg.Clock == nil {
		mwCfg.Clock = wallclock.Clock{}
	}
	cfg.Log.Info("analysis start",
		"taxa", pat.NumTaxa, "patterns", pat.NumPatterns(),
		"inferences", cfg.Inferences, "bootstraps", cfg.Bootstraps,
		"workers", cfg.Workers, "seed", cfg.Seed)
	var rep *mw.Report
	var err2 error
	if cfg.Checkpoint != "" {
		rep, err2 = mw.SuperviseWithCheckpoint(pat, mod, jobs, mwCfg, cfg.Checkpoint)
	} else {
		rep, err2 = mw.Supervise(pat, mod, jobs, mwCfg)
	}
	if err2 != nil {
		return nil, fmt.Errorf("core: campaign failed: %w", err2)
	}

	best, err := mw.Best(rep.Results, mw.Inference)
	if err != nil {
		return nil, err
	}
	bestTree, err := phylotree.ParseNewick(best.Newick)
	if err != nil {
		return nil, fmt.Errorf("core: parsing best tree: %w", err)
	}
	if err := bestTree.AlignTaxa(pat.Names); err != nil {
		return nil, err
	}

	a := &Analysis{
		Best:        bestTree,
		BestLogL:    best.LogL,
		Alpha:       best.Alpha,
		Rates:       best.Rates,
		Results:     rep.Results,
		Quarantined: rep.Quarantined,
		Stats:       rep.Stats,
		// The supervisor already merged every successful job's kernel meter
		// (including restored checkpoint jobs); reuse it so Analysis and the
		// live /metrics kernel.* counters report the same totals.
		Meter: rep.Meter,
	}
	cfg.Log.Info("campaign done",
		"best_logl", best.LogL, "alpha", best.Alpha,
		"attempts", rep.Stats.Attempts, "retries", rep.Stats.Retries,
		"quarantined", len(rep.Quarantined))

	if cfg.Bootstraps > 0 {
		// Quarantined bootstraps are excluded: support values are computed
		// over the replicates that survived, which is exactly the partial-
		// results semantics of a degraded campaign.
		var boots []*phylotree.Tree
		for _, r := range rep.Results {
			if r.Job.Kind != mw.Bootstrap || r.Err != nil {
				continue
			}
			bt, err := phylotree.ParseNewick(r.Newick)
			if err != nil {
				return nil, fmt.Errorf("core: parsing bootstrap tree %d: %w", r.Job.Index, err)
			}
			if err := bt.AlignTaxa(pat.Names); err != nil {
				return nil, err
			}
			boots = append(boots, bt)
		}
		// Replicates that resolved to the same unrooted topology collapse to
		// one representative with a multiplicity before the bipartition
		// passes: the weighted support/consensus reproduce the expanded
		// answer exactly, and on well-resolved datasets (where many
		// replicates agree) the O(replicates x bipartitions) counting work
		// shrinks accordingly. bootstrap.dedup_topologies counts the
		// replicates that were folded into an earlier duplicate.
		uniq, weights, err := phylotree.DedupTopologies(boots)
		if err != nil {
			return nil, err
		}
		if cfg.Metrics != nil {
			cfg.Metrics.Counter("bootstrap.dedup_topologies").Add(uint64(len(boots) - len(uniq)))
		}
		if len(boots) != len(uniq) {
			cfg.Log.Debug("bootstrap dedup", "replicates", len(boots), "distinct", len(uniq))
		}
		if len(uniq) > 0 {
			support, err := phylotree.SupportValuesWeighted(bestTree, uniq, weights)
			if err != nil {
				return nil, err
			}
			a.Support = support
		}
		if len(boots) >= 2 {
			cons, err := phylotree.MajorityRuleConsensusWeighted(uniq, weights, 0.5)
			if err != nil {
				return nil, err
			}
			a.Consensus = cons
		}
	}
	return a, nil
}

// InferOnce runs a single inference (no bootstrapping) and returns the tree
// with its engine meter — the quick path used by examples and by the
// trace-driven Cell simulation.
func InferOnce(pat *alignment.Patterns, cfg Config) (*search.Result, *likelihood.Meter, error) {
	mod, err := ModelFor(pat, cfg.Alpha, cfg.Cats)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	start, err := search.StartingTree(pat, cfg.StartTree, rng)
	if err != nil {
		return nil, nil, err
	}
	if !cfg.Trace.Enabled() && cfg.Metrics != nil {
		tr := obs.NewSpanTracer(wallclock.Monotonic())
		tr.SetRecording(false)
		cfg.Trace = tr.Root("infer")
	}
	kcfg := cfg.Kernel
	if cfg.Metrics != nil {
		if now := cfg.Trace.TimeSource(); now != nil {
			kcfg.Observer = obs.NewKernelHists(cfg.Metrics, kcfg.BackendName())
			kcfg.Now = now
		}
	}
	eng, err := likelihood.NewEngine(pat, mod, kcfg)
	if err != nil {
		return nil, nil, err
	}
	if cfg.Search.Metrics == nil {
		cfg.Search.Metrics = cfg.Metrics
	}
	cfg.Search.Trace = cfg.Trace
	res, err := search.Run(eng, start, cfg.Search)
	if err != nil {
		return nil, nil, err
	}
	return res, &eng.Meter, nil
}

// InferCAT re-fits tree under a per-site rate-category (CAT) model with
// catCount categories — RAxML's fast approximation of rate heterogeneity,
// and the mode whose 25-category transition-matrix loop the paper's SPE
// measurements reflect. It fits the categories on a copy of tree under the
// alignment's GTR with the given exchangeabilities (nil: unit ones, the
// model of a search that fitted none; FitCAT reads no Gamma shape), smooths
// the copy's branch lengths under the CAT model, and returns the copy with
// its CAT log-likelihood; tree itself is not touched. It runs no search: the
// topology is tree's.
func InferCAT(pat *alignment.Patterns, cfg Config, tree *phylotree.Tree, rates *[6]float64, catCount int) (*phylotree.Tree, float64, error) {
	mod, err := modelWith(pat, rates, cfg.Alpha, cfg.Cats)
	if err != nil {
		return nil, 0, err
	}
	eng, err := likelihood.NewEngine(pat, mod, cfg.Kernel)
	if err != nil {
		return nil, 0, err
	}
	refit := tree.Clone()
	catModel, err := search.FitCAT(eng, refit, catCount)
	if err != nil {
		return nil, 0, err
	}
	catEng, err := likelihood.NewEngine(pat, catModel, cfg.Kernel)
	if err != nil {
		return nil, 0, err
	}
	ll, err := search.SmoothBranches(catEng, refit, 4, 0.01)
	if err != nil {
		return nil, 0, err
	}
	return refit, ll, nil
}
