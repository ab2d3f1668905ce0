// Package mw is the master-worker runtime of the reproduction: the
// goroutine/channel analogue of RAxML-VI-HPC's MPI scheme for running many
// independent tree searches — multiple inferences on the original alignment
// plus non-parametric bootstrap replicates — and collecting their results.
//
// Every job is fully determined by its seed, so runs are reproducible for
// any worker count: workers race for jobs but the result of each job does
// not depend on which worker executed it.
package mw

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/fault"
	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/model"
	"raxmlcell/internal/obs"
	"raxmlcell/internal/search"
)

// JobKind distinguishes the two workload types of a publishable analysis.
type JobKind int

const (
	// Inference searches on the original alignment from a fresh random
	// stepwise-addition starting tree.
	Inference JobKind = iota
	// Bootstrap searches on a column-resampled replicate of the alignment.
	Bootstrap
)

func (k JobKind) String() string {
	if k == Bootstrap {
		return "bootstrap"
	}
	return "inference"
}

// Job is one independent tree search.
type Job struct {
	Kind  JobKind
	Index int   // ordinal within its kind
	Seed  int64 // determines starting tree and (for bootstraps) resampling
}

// JobResult carries one finished search.
type JobResult struct {
	Job    Job
	Newick string
	LogL   float64
	Alpha  float64
	Rates  *[6]float64 // fitted GTR exchangeabilities; nil unless the search fitted them
	Meter  likelihood.Meter
	Err    error
}

// Config parameterizes a master-worker run.
type Config struct {
	Workers   int    // concurrent workers (the paper's MPI process count)
	StartTree string // starting-tree kind (see search.StartingTree)
	Search    search.Options
	Kernel    likelihood.Config

	// Retry is the supervision policy: per-attempt deadlines, retry
	// budget, backoff, and quarantine limit. The zero value keeps the
	// legacy semantics — one attempt per job, no deadline, failures
	// recorded in the result rather than aborting the campaign.
	Retry RetryPolicy

	// Fault, when non-nil, injects deterministic faults into job attempts
	// and checkpoint writes. Chaos testing only; production runs leave it
	// nil.
	Fault *fault.Injector

	// Clock supplies the time source for deadlines, backoff waits and
	// slow-down faults. The simdeterminism invariant bars this package
	// from the wall clock, so production entry points inject
	// wallclock.Clock; nil disables backoff and refuses deadlines.
	Clock fault.Clock

	// Log receives structured supervision events — job lifecycle at Debug,
	// campaign progress at Info, retries/timeouts at Warn, quarantines at
	// Error. nil disables logging.
	Log *slog.Logger

	// Metrics, when non-nil, receives live campaign accounting: the
	// mw.* supervision counters, the running best log-likelihood, the
	// mw.attempt_ms / kernel.<backend>.<op>_ms latency histograms, and the
	// kernel.* meter aggregate republished after every completed job —
	// the feed behind the /metrics debug endpoint.
	Metrics *obs.Registry

	// Trace is the wall-clock span context the campaign records into: the
	// campaign span, per-worker tracks, job attempt/backoff spans, and
	// checkpoint saves, all propagated down into the search layer. The
	// zero Ctx disables tracing; its injected time source (when present)
	// also drives the latency histograms and kernel timing, so Metrics
	// without a Trace records no durations.
	Trace obs.Ctx

	// Flight, when non-nil, receives the structured supervision event
	// stream (attempts, retries, timeouts, quarantines, checkpoint
	// activity) into a fixed-size ring for post-mortems; each Quarantine
	// carries a snapshot of the window at the moment it was declared.
	Flight *obs.FlightRecorder

	// OnProgress, when non-nil, receives each job's search trajectory
	// (per-round log-likelihood). It may be called concurrently from
	// several workers and must be safe for that.
	OnProgress func(Job, search.Progress)
}

// Plan builds the standard job list of a full analysis: nInf multiple
// inferences and nBoot bootstraps, with deterministic per-job seeds derived
// from baseSeed.
func Plan(nInf, nBoot int, baseSeed int64) []Job {
	jobs := make([]Job, 0, nInf+nBoot)
	for i := 0; i < nInf; i++ {
		jobs = append(jobs, Job{Kind: Inference, Index: i, Seed: baseSeed + int64(i)*7919})
	}
	for i := 0; i < nBoot; i++ {
		jobs = append(jobs, Job{Kind: Bootstrap, Index: i, Seed: baseSeed + 1_000_003 + int64(i)*7919})
	}
	return jobs
}

// runJob executes one search end to end until ctx is done; it owns a private
// engine, RNG and meter so workers share nothing mutable. tctx is the
// job-labeled span context the search records into; its time source also
// drives the per-backend kernel latency histograms.
func runJob(ctx context.Context, pat *alignment.Patterns, mod *model.Model, job Job, cfg Config, tctx obs.Ctx) JobResult {
	res := JobResult{Job: job}
	rng := rand.New(rand.NewSource(job.Seed))

	work := pat
	if job.Kind == Bootstrap {
		// The engine and the start tree see only the patterns the replicate
		// drew: the undrawn third adds 0 to every sum (alignment.Drawn).
		work = alignment.BootstrapReplicate(pat, rng).Drawn()
	}
	kcfg := cfg.Kernel
	if cfg.Metrics != nil {
		if now := tctx.TimeSource(); now != nil {
			kcfg.Observer = obs.NewKernelHists(cfg.Metrics, kcfg.BackendName())
			kcfg.Now = now
		}
	}
	eng, err := likelihood.NewEngine(work, mod, kcfg)
	if err != nil {
		res.Err = err
		return res
	}
	start, err := search.StartingTree(work, cfg.StartTree, rng)
	if err != nil {
		res.Err = err
		return res
	}
	opts := cfg.Search
	opts.Trace = tctx
	if cfg.OnProgress != nil {
		// Bind the job identity into the per-step trajectory hook, chaining
		// rather than replacing a hook the caller set on the search options
		// themselves.
		prev := opts.OnProgress
		opts.OnProgress = func(pr search.Progress) {
			if prev != nil {
				prev(pr)
			}
			cfg.OnProgress(job, pr)
		}
	}
	out, err := search.RunContext(ctx, eng, start, opts)
	if err != nil {
		res.Err = err
		return res
	}
	res.Newick = out.Tree.Newick()
	res.LogL = out.LogL
	res.Alpha = out.Alpha
	res.Rates = out.Rates
	res.Meter = eng.Meter
	return res
}

// Best returns the result with the highest log-likelihood among the given
// kind (the "best-known ML tree" of the paper), or an error if none
// succeeded.
func Best(results []JobResult, kind JobKind) (*JobResult, error) {
	var best *JobResult
	for i := range results {
		r := &results[i]
		if r.Job.Kind != kind || r.Err != nil {
			continue
		}
		if best == nil || r.LogL > best.LogL {
			best = r
		}
	}
	if best == nil {
		return nil, fmt.Errorf("mw: no successful %v results", kind)
	}
	return best, nil
}
