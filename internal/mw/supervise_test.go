package mw

import (
	"errors"
	"math"
	"testing"
	"time"

	"raxmlcell/internal/fault"
)

// testClock is a real-time clock for tests; test files are exempt from the
// simdeterminism wall-clock ban, and timeout races are harmless here
// because retries reproduce bit-identical results.
type testClock struct{}

func (testClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

func mustInjector(t *testing.T, cfg fault.Config) *fault.Injector {
	t.Helper()
	in, err := fault.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// requireIdentical asserts that every non-quarantined supervised result is
// bit-identical to the fault-free baseline for the same job.
func requireIdentical(t *testing.T, baseline map[Job]JobResult, rep *Report) {
	t.Helper()
	for _, r := range rep.Results {
		if r.Err != nil {
			continue
		}
		base, ok := baseline[r.Job]
		if !ok {
			t.Fatalf("no baseline for job %+v", r.Job)
		}
		if r.Newick != base.Newick {
			t.Errorf("%v job %d: Newick differs from fault-free run", r.Job.Kind, r.Job.Index)
		}
		if math.Float64bits(r.LogL) != math.Float64bits(base.LogL) {
			t.Errorf("%v job %d: LogL %v != baseline %v", r.Job.Kind, r.Job.Index, r.LogL, base.LogL)
		}
		if math.Float64bits(r.Alpha) != math.Float64bits(base.Alpha) {
			t.Errorf("%v job %d: Alpha %v != baseline %v", r.Job.Kind, r.Job.Index, r.Alpha, base.Alpha)
		}
		if r.Meter != base.Meter {
			t.Errorf("%v job %d: meter differs from fault-free run", r.Job.Kind, r.Job.Index)
		}
	}
}

func TestSuperviseRetriesCrashes(t *testing.T) {
	pat, m := testData(t, 7, 150)
	jobs := Plan(2, 3, 61)
	baseRep, err := Supervise(pat, m, jobs, Config{Workers: 2, Search: fastSearch()})
	if err != nil {
		t.Fatal(err)
	}
	base := baseRep.Results
	byJob := map[Job]JobResult{}
	for _, r := range base {
		byJob[r.Job] = r
	}

	cfg := Config{
		Workers: 4,
		Search:  fastSearch(),
		Retry:   RetryPolicy{MaxAttempts: 8},
		Fault:   mustInjector(t, fault.Config{Seed: 5, PCrash: 0.5}),
	}
	rep, err := Supervise(pat, m, jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(jobs) {
		t.Fatalf("results = %d, want %d", len(rep.Results), len(jobs))
	}
	succeeded := 0
	for _, r := range rep.Results {
		if r.Err == nil {
			succeeded++
		}
	}
	if succeeded == 0 {
		t.Fatal("no job survived p=0.5 crashes with 8 attempts")
	}
	if rep.Stats.Attempts <= len(jobs) {
		t.Errorf("attempts = %d for %d jobs; expected retries under p=0.5 crashes", rep.Stats.Attempts, len(jobs))
	}
	if rep.Stats.Retries != rep.Stats.Attempts-len(jobs) {
		t.Errorf("retries = %d inconsistent with %d attempts over %d jobs", rep.Stats.Retries, rep.Stats.Attempts, len(jobs))
	}
	if rep.Stats.FaultsInjected == 0 {
		t.Error("no faults recorded despite p=0.5 injector")
	}
	requireIdentical(t, byJob, rep)
}

func TestSuperviseQuarantinesAfterBudget(t *testing.T) {
	pat, m := testData(t, 6, 100)
	jobs := Plan(2, 1, 17)
	cfg := Config{
		Workers: 2,
		Search:  fastSearch(),
		Retry:   RetryPolicy{MaxAttempts: 3},
		Fault:   mustInjector(t, fault.Config{Seed: 9, PCrash: 1}),
	}
	rep, err := Supervise(pat, m, jobs, cfg)
	if err != nil {
		t.Fatal(err) // no limit set: campaign must complete degraded
	}
	if len(rep.Quarantined) != len(jobs) {
		t.Fatalf("quarantined = %d, want all %d jobs", len(rep.Quarantined), len(jobs))
	}
	for _, q := range rep.Quarantined {
		if q.Attempts != 3 {
			t.Errorf("job %+v quarantined after %d attempts, want 3", q.Job, q.Attempts)
		}
		if !errors.Is(q.Err, fault.ErrInjected) {
			t.Errorf("quarantine error lost fault identity: %v", q.Err)
		}
	}
	if rep.Stats.Attempts != 3*len(jobs) {
		t.Errorf("attempts = %d, want %d", rep.Stats.Attempts, 3*len(jobs))
	}
	for _, r := range rep.Results {
		if r.Err == nil {
			t.Error("result without error despite certain crashes")
		}
	}
}

func TestSuperviseQuarantineLimitAborts(t *testing.T) {
	pat, m := testData(t, 6, 100)
	jobs := Plan(2, 6, 23)
	cfg := Config{
		Workers: 4,
		Search:  fastSearch(),
		Retry:   RetryPolicy{MaxAttempts: 2, LimitQuarantine: true, MaxQuarantine: 1},
		Fault:   mustInjector(t, fault.Config{Seed: 3, PCrash: 1}),
	}
	rep, err := Supervise(pat, m, jobs, cfg)
	if err == nil {
		t.Fatal("campaign succeeded despite certain crashes and limit 1")
	}
	if !errors.Is(err, ErrCampaignAborted) {
		t.Errorf("error %v does not wrap ErrCampaignAborted", err)
	}
	if rep == nil || len(rep.Quarantined) < 2 {
		t.Errorf("expected a partial report with at least 2 quarantined jobs, got %+v", rep)
	}
}

func TestSuperviseCorruptResultsRetried(t *testing.T) {
	pat, m := testData(t, 7, 150)
	jobs := Plan(1, 2, 41)
	baseRep, err := Supervise(pat, m, jobs, Config{Workers: 1, Search: fastSearch()})
	if err != nil {
		t.Fatal(err)
	}
	base := baseRep.Results
	byJob := map[Job]JobResult{}
	for _, r := range base {
		byJob[r.Job] = r
	}
	cfg := Config{
		Workers: 2,
		Search:  fastSearch(),
		Retry:   RetryPolicy{MaxAttempts: 10},
		Fault:   mustInjector(t, fault.Config{Seed: 77, PCorrupt: 0.6}),
	}
	rep, err := Supervise(pat, m, jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, byJob, rep)
	for _, r := range rep.Results {
		if r.Err != nil && !errors.Is(r.Err, ErrInvalidResult) {
			t.Errorf("corrupt-fault failure not a validation error: %v", r.Err)
		}
	}
}

func TestSuperviseHangTimesOutAndRetries(t *testing.T) {
	pat, m := testData(t, 6, 100)
	jobs := Plan(1, 1, 53)
	baseRep, err := Supervise(pat, m, jobs, Config{Workers: 1, Search: fastSearch()})
	if err != nil {
		t.Fatal(err)
	}
	base := baseRep.Results
	byJob := map[Job]JobResult{}
	for _, r := range base {
		byJob[r.Job] = r
	}
	cfg := Config{
		Workers: 2,
		Search:  fastSearch(),
		Retry:   RetryPolicy{MaxAttempts: 12, JobTimeout: 300 * time.Millisecond, Backoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond},
		Fault:   mustInjector(t, fault.Config{Seed: 31, PHang: 0.5}),
		Clock:   testClock{},
	}
	rep, err := Supervise(pat, m, jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if r.Err != nil {
			t.Fatalf("job %+v did not recover from hangs: %v", r.Job, r.Err)
		}
	}
	requireIdentical(t, byJob, rep)
	if rep.Stats.Timeouts == 0 && rep.Stats.Retries == 0 {
		// Possible but vanishingly unlikely with p=0.5 over 2 jobs x 12
		// attempts; treat as suspicious.
		t.Log("note: no hang fired for this seed")
	}
}

func TestSuperviseRejectsUnarmedDeadline(t *testing.T) {
	// A deadline needs a clock to fire it, and an injected hang needs a
	// deadline to end it: without one the worker pool would wedge, so
	// Supervise refuses the configuration before running any job. This test
	// hangs forever if the refusal is broken.
	pat, m := testData(t, 6, 100)
	jobs := Plan(1, 1, 29)
	hangs := mustInjector(t, fault.Config{Seed: 1, PHang: 1})
	for name, cfg := range map[string]Config{
		"hang without deadline":        {Fault: hangs, Clock: testClock{}},
		"hang with deadline, no clock": {Fault: hangs, Retry: RetryPolicy{JobTimeout: time.Second}},
		"deadline without clock":       {Retry: RetryPolicy{JobTimeout: time.Second}},
	} {
		cfg.Search = fastSearch()
		if rep, err := Supervise(pat, m, jobs, cfg); err == nil || rep != nil {
			t.Errorf("%s: Supervise ran (report %v, error %v)", name, rep != nil, err)
		}
	}
}

func TestSuperviseSlowDownHarmless(t *testing.T) {
	pat, m := testData(t, 7, 150)
	jobs := Plan(1, 2, 71)
	baseRep, err := Supervise(pat, m, jobs, Config{Workers: 1, Search: fastSearch()})
	if err != nil {
		t.Fatal(err)
	}
	base := baseRep.Results
	byJob := map[Job]JobResult{}
	for _, r := range base {
		byJob[r.Job] = r
	}
	cfg := Config{
		Workers: 2,
		Search:  fastSearch(),
		Fault:   mustInjector(t, fault.Config{Seed: 13, PSlow: 0.8, SlowDelay: 2 * time.Millisecond}),
		Clock:   testClock{},
	}
	rep, err := Supervise(pat, m, jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if r.Err != nil {
			t.Fatalf("slow-down broke job %+v: %v", r.Job, r.Err)
		}
	}
	requireIdentical(t, byJob, rep)
}

func TestValidateResult(t *testing.T) {
	good := JobResult{Job: Job{Kind: Inference}, Newick: "(a:0.1,b:0.2,(c:0.1,d:0.3):0.05);", LogL: -123.4, Alpha: 0.8}
	if err := ValidateResult(&good); err != nil {
		t.Errorf("valid result rejected: %v", err)
	}
	fitted := good
	fitted.Rates = &[6]float64{1.2, 3.4, 0.9, 1.1, 4.2, 1}
	if err := ValidateResult(&fitted); err != nil {
		t.Errorf("valid fitted rates rejected: %v", err)
	}
	cases := []JobResult{
		{Newick: "(a:0.1,b:0.2", LogL: -1, Alpha: 1},                                             // torn newick
		{Newick: good.Newick, LogL: math.NaN(), Alpha: 1},                                        // NaN logL
		{Newick: good.Newick, LogL: math.Inf(-1), Alpha: 1},                                      // -Inf logL
		{Newick: good.Newick, LogL: -1, Alpha: math.NaN()},                                       // NaN alpha
		{Newick: good.Newick, LogL: -1, Alpha: -2},                                               // negative alpha
		{Newick: "", LogL: -1, Alpha: 1},                                                         // empty tree
		{Newick: good.Newick, LogL: -1, Alpha: 1, Rates: &[6]float64{1, 2, 1, 1, math.NaN(), 1}}, // NaN GTR rate
		{Newick: good.Newick, LogL: -1, Alpha: 1, Rates: &[6]float64{1, 2, 0, 1, 1, 1}},          // zero GTR rate
		{Newick: good.Newick, LogL: -1, Alpha: 1, Err: errors.New("already failed upstream")},    // existing error wins
	}
	for i, r := range cases {
		err := ValidateResult(&r)
		if err == nil {
			t.Errorf("case %d accepted: %+v", i, r)
			continue
		}
		if i < len(cases)-1 && !errors.Is(err, ErrInvalidResult) {
			t.Errorf("case %d error lost ErrInvalidResult identity: %v", i, err)
		}
	}
}

func TestBackoffDelay(t *testing.T) {
	p := RetryPolicy{Backoff: 100 * time.Millisecond, MaxBackoff: time.Second}
	if d := backoffDelay(p, 42, 1); d != 0 {
		t.Errorf("attempt 1 backoff = %v, want 0", d)
	}
	if d := backoffDelay(RetryPolicy{}, 42, 3); d != 0 {
		t.Errorf("zero policy backoff = %v, want 0", d)
	}
	// Deterministic for fixed coordinates.
	if backoffDelay(p, 42, 2) != backoffDelay(p, 42, 2) {
		t.Error("backoff not deterministic")
	}
	// Jittered within [0.5x, 1.5x) of the exponential base.
	for attempt := 2; attempt <= 5; attempt++ {
		base := p.Backoff << uint(attempt-2)
		if base > p.MaxBackoff {
			base = p.MaxBackoff
		}
		for seed := int64(0); seed < 40; seed++ {
			d := backoffDelay(p, seed, attempt)
			if d < base/2 || d >= base+base/2 {
				t.Fatalf("backoff(%d,%d) = %v outside [%v,%v)", seed, attempt, d, base/2, base+base/2)
			}
		}
	}
	// Cap applies.
	if d := backoffDelay(p, 7, 30); d >= time.Second+time.Second/2 {
		t.Errorf("capped backoff = %v, want < 1.5s", d)
	}
}

// TestSuperviseRaceStress drives the supervisor's retry and cancellation
// paths hard under the race detector: high worker count, certain faults,
// and a quarantine-limit breach mid-flight.
func TestSuperviseRaceStress(t *testing.T) {
	pat, m := testData(t, 6, 80)
	jobs := Plan(4, 20, 83)

	cfg := Config{
		Workers: 16,
		Search:  fastSearch(),
		Retry:   RetryPolicy{MaxAttempts: 3},
		Fault:   mustInjector(t, fault.Config{Seed: 19, PCrash: 0.25, PCorrupt: 0.25}),
	}
	rep, err := Supervise(pat, m, jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(jobs) {
		t.Fatalf("results = %d, want %d", len(rep.Results), len(jobs))
	}

	// Same storm with a tight quarantine budget: must cancel cleanly.
	cfg.Retry = RetryPolicy{MaxAttempts: 1, LimitQuarantine: true, MaxQuarantine: 0}
	cfg.Fault = mustInjector(t, fault.Config{Seed: 19, PCrash: 0.9})
	rep, err = Supervise(pat, m, jobs, cfg)
	if err == nil {
		t.Fatal("quarantine-limit breach not reported")
	}
	if !errors.Is(err, ErrCampaignAborted) {
		t.Errorf("error %v does not wrap ErrCampaignAborted", err)
	}
	if rep == nil {
		t.Fatal("no partial report on abort")
	}
}
