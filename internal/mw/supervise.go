package mw

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/fault"
	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/model"
	"raxmlcell/internal/obs"
	"raxmlcell/internal/phylotree"
)

// RetryPolicy is the supervision policy of a campaign: how often a job is
// attempted, how long an attempt may run, and how many permanently failed
// jobs the campaign tolerates. The zero value reproduces the legacy
// semantics — one attempt per job, no deadline, no quarantine limit.
type RetryPolicy struct {
	// MaxAttempts is the attempt budget per job before it is quarantined;
	// values below 1 mean 1 (no retries). Jobs are pure functions of their
	// seed, so a retry reproduces exactly the result the failed attempt
	// would have produced.
	MaxAttempts int
	// JobTimeout is the per-attempt deadline; an attempt that exceeds it
	// is abandoned and counted as a failure (hung-worker detection). Zero
	// disables deadlines. Requires Config.Clock.
	JobTimeout time.Duration
	// Backoff is the base delay before the second attempt of a job; it
	// doubles per subsequent attempt with deterministic jitter in
	// [0.5,1.5) drawn from the job seed. Zero disables backoff.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth; zero means uncapped.
	MaxBackoff time.Duration
	// LimitQuarantine enables the quarantine budget: once more than
	// MaxQuarantine jobs are quarantined, the campaign is cancelled and
	// Supervise returns an error wrapping ErrCampaignAborted. When false
	// (the zero value), any number of quarantined jobs is tolerated and
	// the campaign always completes with a partial-results report.
	LimitQuarantine bool
	// MaxQuarantine is the number of quarantined jobs tolerated when
	// LimitQuarantine is set; 0 aborts on the first quarantined job.
	MaxQuarantine int
}

func (p RetryPolicy) maxAttempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Quarantine records a job that exhausted its attempt budget without
// producing a valid result.
type Quarantine struct {
	Job      Job
	Attempts int
	Err      error // the last attempt's failure

	// Flight is the flight-recorder window snapshotted at the moment the
	// quarantine was declared (nil when no recorder is configured) — the
	// last few thousand supervision events leading up to the failure.
	Flight []obs.FlightEvent
}

// Stats aggregates supervision counters across a campaign.
type Stats struct {
	Attempts       int // job attempts started
	Retries        int // attempts beyond each job's first
	Timeouts       int // attempts abandoned at their deadline
	FaultsInjected int // injected job faults encountered (chaos runs)

	CheckpointFailures  int  // checkpoint writes that failed and were deferred
	CheckpointRecovered bool // a damaged checkpoint file was set aside on load
}

// Report is the full outcome of a supervised campaign. Results holds every
// job that reached a final state, in (kind, index) order; quarantined jobs
// appear both in Results (with Err set to their last failure) and in
// Quarantined.
type Report struct {
	Results     []JobResult
	Quarantined []Quarantine
	Stats       Stats
	// Meter aggregates the kernel meters of every successful job — the
	// merged per-worker accounting, returned here (and republished live
	// through Config.Metrics) rather than only printed by callers.
	Meter likelihood.Meter
}

// aggregateMeter merges the kernel meters of the successful results.
func aggregateMeter(results []JobResult) likelihood.Meter {
	var m likelihood.Meter
	for i := range results {
		if results[i].Err == nil {
			m.Add(&results[i].Meter)
		}
	}
	return m
}

var (
	// ErrTimeout marks an attempt abandoned at its per-job deadline.
	ErrTimeout = errors.New("mw: attempt deadline exceeded")
	// ErrCampaignAborted marks a campaign cancelled because the
	// quarantine limit was breached.
	ErrCampaignAborted = errors.New("mw: quarantine limit breached")
	// ErrInvalidResult marks a completed job whose payload failed
	// validation (unparseable tree or non-finite fitted numbers).
	ErrInvalidResult = errors.New("mw: result failed validation")
)

// ValidateResult checks the integrity of a completed job payload: the tree
// must parse as Newick and the fitted numbers must be finite. Supervision
// treats a validation failure like any other attempt failure, so a
// corrupted result is retried and, if it keeps failing, quarantined.
func ValidateResult(r *JobResult) error {
	if r.Err != nil {
		return r.Err
	}
	if _, err := phylotree.ParseNewick(r.Newick); err != nil {
		return fmt.Errorf("%w: %v job %d: corrupt newick: %v", ErrInvalidResult, r.Job.Kind, r.Job.Index, err)
	}
	if math.IsNaN(r.LogL) || math.IsInf(r.LogL, 0) {
		return fmt.Errorf("%w: %v job %d: non-finite log-likelihood %v", ErrInvalidResult, r.Job.Kind, r.Job.Index, r.LogL)
	}
	if math.IsNaN(r.Alpha) || math.IsInf(r.Alpha, 0) || r.Alpha <= 0 {
		return fmt.Errorf("%w: %v job %d: invalid alpha %v", ErrInvalidResult, r.Job.Kind, r.Job.Index, r.Alpha)
	}
	return nil
}

// backoffDelay is the deterministic pre-attempt delay: exponential doubling
// from the policy's base with jitter in [0.5,1.5) drawn from the job seed,
// capped at MaxBackoff. attempt is the attempt about to start (>= 2).
func backoffDelay(p RetryPolicy, jobSeed int64, attempt int) time.Duration {
	if p.Backoff <= 0 || attempt <= 1 {
		return 0
	}
	exp := attempt - 2
	if exp > 20 {
		exp = 20 // 2^20 x base; past this any realistic cap has applied
	}
	d := p.Backoff << uint(exp)
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return time.Duration(float64(d) * (0.5 + fault.Jitter(jobSeed, attempt)))
}

// outcome is the final state of one job after supervision.
type outcome struct {
	result      JobResult
	attempts    int
	quarantined bool
}

// supervisor owns the shared state of one campaign.
type supervisor struct {
	pat *alignment.Patterns
	mod *model.Model
	cfg Config
	log *slog.Logger

	// attemptHist is the mw.attempt_ms latency histogram, resolved once
	// (nil without Metrics).
	attemptHist *obs.Histogram

	mu          sync.Mutex
	stats       Stats
	quarantined []Quarantine

	stop     chan struct{} // closed when the quarantine limit is breached
	stopOnce sync.Once
}

// count bumps a live supervision counter; a nil registry costs one branch.
func (s *supervisor) count(name string) {
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.Counter(name).Inc()
	}
}

func (s *supervisor) abort() { s.stopOnce.Do(func() { close(s.stop) }) }

func (s *supervisor) stopped() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

func (s *supervisor) note(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

func (s *supervisor) quarantineCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.quarantined)
}

func (s *supervisor) noteQuarantine(q Quarantine) {
	s.mu.Lock()
	s.quarantined = append(s.quarantined, q)
	n := len(s.quarantined)
	s.mu.Unlock()
	if s.cfg.Retry.LimitQuarantine && n > s.cfg.Retry.MaxQuarantine {
		s.abort()
	}
}

// Supervise executes the jobs under the configured retry policy (and fault
// plan, if any) and returns the full campaign report. Unless the quarantine
// limit is breached, Supervise succeeds even when jobs fail permanently:
// the report then carries partial results plus the quarantine list. On a
// limit breach it cancels outstanding work and returns the partial report
// together with an error wrapping ErrCampaignAborted.
func Supervise(pat *alignment.Patterns, mod *model.Model, jobs []Job, cfg Config) (*Report, error) {
	return supervise(pat, mod, jobs, cfg, nil)
}

// supervise is the shared campaign loop. onOutcome, when non-nil, runs in
// the collector goroutine after each job reaches a final state — the hook
// checkpointing uses to persist serially.
func supervise(pat *alignment.Patterns, mod *model.Model, jobs []Job, cfg Config, onOutcome func(*outcome)) (*Report, error) {
	if pat == nil || mod == nil {
		return nil, fmt.Errorf("mw: nil patterns or model")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.Log == nil {
		cfg.Log = obs.Discard()
	}
	s := &supervisor{pat: pat, mod: mod, cfg: cfg, log: cfg.Log, stop: make(chan struct{})}
	if cfg.Metrics != nil {
		cfg.Metrics.Gauge("mw.jobs_total").Set(float64(len(jobs)))
		cfg.Metrics.Gauge("mw.workers").Set(float64(cfg.Workers))
		s.attemptHist = cfg.Metrics.Histogram("mw.attempt_ms", obs.MsBuckets)
	}
	s.log.Info("campaign start", "jobs", len(jobs), "workers", cfg.Workers,
		"max_attempts", cfg.Retry.maxAttempts())
	campaign := cfg.Trace.Start("campaign", "mw")
	cfg.Flight.Record("campaign.start", "", 0, -1,
		fmt.Sprintf("jobs=%d workers=%d", len(jobs), cfg.Workers))

	jobCh := make(chan Job)
	outCh := make(chan outcome, len(jobs))
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker records onto its own trace track, so the timeline
			// shows the campaign's occupancy the way the sim tracer shows
			// SPE lanes.
			wctx := cfg.Trace.WithTrack("worker-" + strconv.Itoa(w)).WithWorker(w)
			for job := range jobCh {
				outCh <- s.superviseJob(job, w, wctx)
			}
		}(w)
	}
	go func() {
		defer close(jobCh)
		for _, j := range jobs {
			select {
			case jobCh <- j:
			case <-s.stop:
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(outCh)
	}()

	rep := &Report{}
	var failed int
	best := math.Inf(-1)
	for o := range outCh {
		rep.Results = append(rep.Results, o.result)
		if o.result.Err == nil {
			rep.Meter.Add(&o.result.Meter)
			if o.result.LogL > best {
				best = o.result.LogL
			}
		} else {
			failed++
		}
		if cfg.Metrics != nil {
			cfg.Metrics.Counter("mw.jobs_done").Inc()
			cfg.Metrics.Counter(obs.Key("mw.jobs_done", "kind", o.result.Job.Kind.String())).Inc()
			if o.result.Err != nil {
				cfg.Metrics.Counter("mw.jobs_failed").Inc()
			}
			if !math.IsInf(best, -1) {
				cfg.Metrics.Gauge("mw.best_logl").Set(best)
			}
			cfg.Metrics.Histogram("mw.attempts_per_job", []float64{1, 2, 3, 5, 10, 20}).
				Observe(float64(o.attempts))
			obs.PublishMeter(cfg.Metrics, &rep.Meter)
		}
		s.log.Info("progress",
			"done", len(rep.Results), "total", len(jobs), "failed", failed,
			"quarantined", s.quarantineCount(), "best_logl", best)
		if onOutcome != nil {
			onOutcome(&o)
		}
	}

	campaign.End()
	cfg.Flight.Record("campaign.end", "", 0, -1,
		fmt.Sprintf("done=%d quarantined=%d", len(rep.Results), s.quarantineCount()))

	sortResults(rep.Results)
	s.mu.Lock()
	rep.Stats = s.stats
	rep.Quarantined = append([]Quarantine(nil), s.quarantined...)
	s.mu.Unlock()
	sort.Slice(rep.Quarantined, func(i, j int) bool {
		a, b := rep.Quarantined[i].Job, rep.Quarantined[j].Job
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Index < b.Index
	})
	if p := cfg.Retry; p.LimitQuarantine && len(rep.Quarantined) > p.MaxQuarantine {
		return rep, fmt.Errorf("%w: %d jobs quarantined, limit %d; first: %v",
			ErrCampaignAborted, len(rep.Quarantined), p.MaxQuarantine, rep.Quarantined[0].Err)
	}
	return rep, nil
}

// jobLabel names a job the way trace args and flight events carry it.
func jobLabel(job Job) string {
	return job.Kind.String() + "#" + strconv.Itoa(job.Index)
}

// superviseJob drives one job through its attempt budget: backoff, deadline
// enforcement, result validation, and finally success or quarantine. worker
// is the supervision worker index the job landed on; wctx is that worker's
// trace context.
func (s *supervisor) superviseJob(job Job, worker int, wctx obs.Ctx) outcome {
	label := jobLabel(job)
	jctx := wctx.WithJob(label)
	flight := s.cfg.Flight
	budget := s.cfg.Retry.maxAttempts()
	var last JobResult
	for attempt := 1; attempt <= budget; attempt++ {
		if s.stopped() {
			if last.Err == nil {
				last = JobResult{Job: job, Err: ErrCampaignAborted}
			}
			return outcome{result: last, attempts: attempt - 1}
		}
		if attempt > 1 {
			s.note(func(st *Stats) { st.Retries++ })
			s.count("mw.retries")
			d := backoffDelay(s.cfg.Retry, job.Seed, attempt)
			s.log.Warn("retrying job", "kind", job.Kind.String(), "index", job.Index,
				"attempt", attempt, "backoff", d, "last_error", last.Err)
			flight.Record("backoff", label, attempt, worker, d.String())
			if d > 0 && s.cfg.Clock != nil {
				bsp := jctx.Start("backoff", "mw")
				s.cfg.Clock.Sleep(d)
				bsp.End()
			}
		}
		s.note(func(st *Stats) { st.Attempts++ })
		s.count("mw.attempts")
		flight.Record("attempt", label, attempt, worker, "")
		asp := jctx.Start("attempt", "mw")
		r, timedOut := s.attemptOnce(job, attempt, worker, jctx)
		asp.EndObserve(s.attemptHist)
		if timedOut {
			s.note(func(st *Stats) { st.Timeouts++ })
			s.count("mw.timeouts")
			flight.Record("timeout", label, attempt, worker, s.cfg.Retry.JobTimeout.String())
		}
		if r.Err == nil {
			if verr := ValidateResult(&r); verr != nil {
				r.Err = verr
				s.log.Warn("result failed validation", "kind", job.Kind.String(),
					"index", job.Index, "attempt", attempt, "error", verr)
				flight.Record("invalid-result", label, attempt, worker, verr.Error())
			} else {
				s.log.Debug("job done", "kind", job.Kind.String(), "index", job.Index,
					"attempts", attempt, "logl", r.LogL, "alpha", r.Alpha)
				flight.Record("attempt.ok", label, attempt, worker, "")
				return outcome{result: r, attempts: attempt}
			}
		} else if !timedOut {
			flight.Record("attempt.err", label, attempt, worker, r.Err.Error())
		}
		last = r
	}
	var errDetail string
	if last.Err != nil {
		errDetail = last.Err.Error()
	}
	flight.Record("quarantine", label, budget, worker, errDetail)
	jctx.Instant("quarantine", "mw")
	// Snapshot *after* recording the quarantine event, so the dump attached
	// to the Quarantine includes it.
	s.noteQuarantine(Quarantine{Job: job, Attempts: budget, Err: last.Err, Flight: flight.Snapshot()})
	s.count("mw.quarantined")
	s.log.Error("job quarantined", "kind", job.Kind.String(), "index", job.Index,
		"attempts", budget, "error", last.Err)
	return outcome{result: last, attempts: budget, quarantined: true}
}

// attemptOnce runs a single attempt, arming the per-job deadline when one
// is configured. The second return value reports a deadline expiry.
func (s *supervisor) attemptOnce(job Job, attempt, worker int, jctx obs.Ctx) (JobResult, bool) {
	var dec fault.Decision
	if s.cfg.Fault != nil {
		dec = s.cfg.Fault.JobAttempt(job.Seed, attempt)
		if dec.Kind != fault.None {
			s.note(func(st *Stats) { st.FaultsInjected++ })
			s.count("mw.faults_injected")
			s.cfg.Flight.Record("fault", jobLabel(job), attempt, worker, dec.Kind.String())
		}
	}
	timeout := s.cfg.Retry.JobTimeout
	if timeout <= 0 || s.cfg.Clock == nil {
		return s.execute(job, attempt, worker, jctx, dec, nil), false
	}
	done := make(chan JobResult, 1) // buffered: an abandoned attempt still exits
	kill := make(chan struct{})
	go func() { done <- s.execute(job, attempt, worker, jctx, dec, kill) }()
	select {
	case r := <-done:
		return r, false
	case <-s.cfg.Clock.After(timeout):
		close(kill)
		return JobResult{Job: job, Err: fmt.Errorf("%w: %v job %d attempt %d exceeded %v",
			ErrTimeout, job.Kind, job.Index, attempt, timeout)}, true
	case <-s.stop:
		close(kill)
		return JobResult{Job: job, Err: ErrCampaignAborted}, false
	}
}

// execute runs one attempt end to end, applying the injected fault. kill is
// non-nil only when a deadline is armed; a Hang fault blocks on it so the
// goroutine exits once the supervisor abandons the attempt.
func (s *supervisor) execute(job Job, attempt, worker int, jctx obs.Ctx, dec fault.Decision, kill <-chan struct{}) JobResult {
	switch dec.Kind {
	case fault.Crash:
		return JobResult{Job: job, Err: fmt.Errorf("worker crash on %v job %d attempt %d: %w",
			job.Kind, job.Index, attempt, fault.ErrInjected)}
	case fault.Hang:
		if kill == nil {
			// No deadline armed: an indefinite block would wedge the
			// worker forever, so the hang degrades to an immediate crash.
			return JobResult{Job: job, Err: fmt.Errorf("worker hang (no deadline armed) on %v job %d attempt %d: %w",
				job.Kind, job.Index, attempt, fault.ErrInjected)}
		}
		<-kill
		return JobResult{Job: job, Err: fmt.Errorf("worker hung on %v job %d attempt %d: %w",
			job.Kind, job.Index, attempt, fault.ErrInjected)}
	case fault.SlowDown:
		if s.cfg.Clock != nil && dec.Delay > 0 {
			s.cfg.Clock.Sleep(dec.Delay)
		}
	}
	r := s.runJobSafe(job, attempt, worker, jctx)
	if dec.Kind == fault.Corrupt && r.Err == nil {
		corruptResult(&r, dec.Coin)
	}
	return r
}

// runJobSafe converts a panicking search into a failed attempt: the
// supervision loop then retries or quarantines it like any other failure
// instead of tearing the whole campaign down, and the flight recorder keeps
// the panic value for the post-mortem.
func (s *supervisor) runJobSafe(job Job, attempt, worker int, tctx obs.Ctx) (res JobResult) {
	defer func() {
		if p := recover(); p != nil {
			s.cfg.Flight.Record("panic", jobLabel(job), attempt, worker, fmt.Sprint(p))
			res = JobResult{Job: job, Err: fmt.Errorf("worker panic on %v job %d attempt %d: %v",
				job.Kind, job.Index, attempt, p)}
		}
	}()
	return runJob(s.pat, s.mod, job, s.cfg, tctx)
}

// corruptResult deterministically mangles a completed result the way a
// flaky worker or torn transfer would: an unparseable tree or a non-finite
// likelihood. ValidateResult must catch either flavour.
func corruptResult(r *JobResult, coin uint64) {
	if coin%2 == 0 {
		r.Newick = r.Newick[:len(r.Newick)/2] + "(" // torn mid-transfer, unbalanced
	} else {
		r.LogL = math.NaN()
	}
}

// sortResults orders results by (kind, index) — the stable order every
// public API returns.
func sortResults(results []JobResult) {
	sort.Slice(results, func(i, j int) bool {
		if results[i].Job.Kind != results[j].Job.Kind {
			return results[i].Job.Kind < results[j].Job.Kind
		}
		return results[i].Job.Index < results[j].Job.Index
	})
}
