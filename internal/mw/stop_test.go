package mw

import (
	"bytes"
	"encoding/json"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/fault"
	"raxmlcell/internal/model"
	"raxmlcell/internal/obs"
	"raxmlcell/internal/search"
)

// goroutines returns the stacks of the live goroutines by id, leaving out
// the range executor's helpers, which live as long as the process.
func goroutines() map[string]string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	live := map[string]string{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "rangeExecutor).help") {
			continue
		}
		id, _, _ := strings.Cut(strings.TrimPrefix(g, "goroutine "), " ")
		live[id] = g
	}
	return live
}

// requireNoLeak fails if a goroutine that was not live in before is still
// live a moment after a campaign returned: the workers and the feeder a
// returning campaign leaves may need that moment to exit, a search does not
// get it.
func requireNoLeak(t *testing.T, before map[string]string) {
	t.Helper()
	var extra []string
	for try := 0; try < 200; try++ {
		extra = extra[:0]
		for id, g := range goroutines() {
			if _, ok := before[id]; !ok {
				extra = append(extra, g)
			}
		}
		if len(extra) == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("%d goroutines outlived the campaign:\n%s", len(extra), strings.Join(extra, "\n\n"))
}

// requireNoSearch fails if any goroutine is still inside a search: called
// right after Supervise returns, with no grace.
func requireNoSearch(t *testing.T) {
	t.Helper()
	for _, g := range goroutines() {
		if strings.Contains(g, "raxmlcell/internal/search.") {
			t.Errorf("a search is still running after Supervise returned:\n%s", g)
		}
	}
}

// monotonic is a wall-clock time source for the tracer and flight recorder
// the stop tests read their timings from.
func monotonic() func() time.Duration {
	epoch := time.Now()
	return func() time.Duration { return time.Since(epoch) }
}

// longestPrune is the longest candidate-scoring span ("candidates", one per
// prune) tracer recorded.
func longestPrune(t *testing.T, tracer *obs.SpanTracer) time.Duration {
	t.Helper()
	var buf bytes.Buffer
	if err := tracer.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	var longest int64
	n := 0
	for _, ev := range trace.TraceEvents {
		if ev.Name == "candidates" {
			n++
			longest = max(longest, ev.Dur)
		}
	}
	if n == 0 {
		t.Fatal("no prune was traced")
	}
	return time.Duration(longest) * time.Microsecond
}

// stopInput is an input whose search runs long enough to be stopped in the
// middle of its SPR rounds, with prunes long enough to time.
func stopInput(t *testing.T) (*alignment.Patterns, *model.Model, search.Options) {
	pat, m := testData(t, 20, 1200)
	return pat, m, search.DefaultOptions()
}

// firingClock is a real-time clock that remembers, on the tracer's time
// source, when the first of its channels fired.
type firingClock struct {
	now   func() time.Duration
	mu    sync.Mutex
	fired time.Duration
}

func (c *firingClock) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	time.AfterFunc(d, func() {
		c.mu.Lock()
		if c.fired == 0 {
			c.fired = c.now()
		}
		c.mu.Unlock()
		ch <- time.Now()
	})
	return ch
}

// TestSuperviseTimeoutStopsSearch: a fault-free search that needs at least
// 20 times its deadline is stopped there — counted as a timeout, its
// goroutine gone before Supervise returns, within two of the longest prunes
// measured on the same input.
func TestSuperviseTimeoutStopsSearch(t *testing.T) {
	pat, m, opts := stopInput(t)
	jobs := Plan(1, 0, 5)
	now := monotonic()
	tracer := obs.NewSpanTracer(now)

	began := now()
	ref, err := Supervise(pat, m, jobs, Config{Search: opts, Trace: tracer.Root("reference")})
	if err != nil || ref.Results[0].Err != nil {
		t.Fatalf("reference search failed: %v %v", err, ref.Results[0].Err)
	}
	whole := now() - began
	timeout := whole / 20

	clock := &firingClock{now: now}
	before := goroutines()
	rep, err := Supervise(pat, m, jobs, Config{
		Search: opts,
		Retry:  RetryPolicy{MaxAttempts: 1, JobTimeout: timeout},
		Clock:  clock,
		Trace:  tracer.Root("timed"),
	})
	returned := now()
	requireNoSearch(t)
	if err != nil {
		t.Fatal(err)
	}
	if r := rep.Results[0]; !errors.Is(r.Err, ErrTimeout) {
		t.Errorf("result error %v, want ErrTimeout", r.Err)
	}
	if rep.Stats.Timeouts != 1 {
		t.Errorf("Stats.Timeouts = %d, want 1", rep.Stats.Timeouts)
	}
	clock.mu.Lock()
	late := returned - clock.fired
	clock.mu.Unlock()
	prune := longestPrune(t, tracer)
	t.Logf("search %v, deadline %v, returned %v after it; longest prune %v", whole, timeout, late, prune)
	if late > 2*prune {
		t.Errorf("Supervise returned %v after the deadline, more than twice the longest prune (%v)", late, prune)
	}
	requireNoLeak(t, before)
}

// TestSuperviseAbortStopsInFlight: a quarantine-limit abort stops a search
// in flight on another worker, one with no deadline, within two of the
// longest prunes measured on the same input; the stopped job is not
// quarantined.
func TestSuperviseAbortStopsInFlight(t *testing.T) {
	pat, m, opts := stopInput(t)
	jobs := Plan(2, 0, 5)
	long, doomed := jobs[0], jobs[1]
	// An injector under which the doomed job crashes at both its attempts
	// and the long one runs clean.
	var in *fault.Injector
	for seed := int64(1); in == nil; seed++ {
		c := mustInjector(t, fault.Config{Seed: seed, PCrash: 0.5})
		if c.JobAttempt(long.Seed, 1).Kind == fault.None &&
			c.JobAttempt(doomed.Seed, 1).Kind == fault.Crash && c.JobAttempt(doomed.Seed, 2).Kind == fault.Crash {
			in = c
		}
	}
	now := monotonic()
	tracer := obs.NewSpanTracer(now)
	if _, err := Supervise(pat, m, []Job{long}, Config{Search: opts, Trace: tracer.Root("reference")}); err != nil {
		t.Fatal(err)
	}

	// The doomed job's backoff ends once the long search is past its start
	// point, so the abort lands in the long job's SPR rounds.
	gate := make(chan time.Time)
	var once sync.Once
	flight := obs.NewFlightRecorder(0, now)
	before := goroutines()
	rep, err := Supervise(pat, m, jobs, Config{
		Workers: 2,
		Search:  opts,
		Retry:   RetryPolicy{MaxAttempts: 2, Backoff: time.Millisecond, LimitQuarantine: true},
		Fault:   in,
		Clock:   gateClock(gate),
		Trace:   tracer.Root("aborted"),
		Flight:  flight,
		OnProgress: func(job Job, p search.Progress) {
			if job == long && p.Phase == "start" {
				once.Do(func() { close(gate) })
			}
		},
	})
	returned := now()
	requireNoSearch(t)
	if !errors.Is(err, ErrCampaignAborted) {
		t.Fatalf("error %v, want ErrCampaignAborted", err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Job != doomed {
		t.Fatalf("quarantined %+v, want the doomed job alone", rep.Quarantined)
	}
	for _, r := range rep.Results {
		if r.Job == long && !errors.Is(r.Err, ErrCampaignAborted) {
			t.Errorf("long job's result error %v, want ErrCampaignAborted", r.Err)
		}
	}
	var aborted time.Duration
	for _, ev := range rep.Quarantined[0].Flight {
		if ev.Kind == "quarantine" {
			aborted = time.Duration(ev.AtMs * float64(time.Millisecond))
		}
	}
	late := returned - aborted
	prune := longestPrune(t, tracer)
	t.Logf("returned %v after the abort; longest prune %v", late, prune)
	if late > 2*prune {
		t.Errorf("Supervise returned %v after the abort, more than twice the longest prune (%v)", late, prune)
	}
	requireNoLeak(t, before)
}

// gateClock's channels all fire when the gate is closed.
type gateClock chan time.Time

func (g gateClock) After(time.Duration) <-chan time.Time { return g }

// backoffClock's first channel fires only once a second has been asked
// for, and that one and every later one never fire: one job's backoff ends
// while another's is pending and never ends by itself.
type backoffClock struct {
	mu    sync.Mutex
	calls int
	first chan time.Time
}

func (c *backoffClock) After(time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	switch c.calls {
	case 1:
		c.first = make(chan time.Time, 1)
		return c.first
	case 2:
		c.first <- time.Time{}
	}
	return make(chan time.Time)
}

// TestSuperviseAbortEndsBackoff: a quarantine-limit abort reaches a job
// waiting out a backoff that never ends, and the campaign returns.
func TestSuperviseAbortEndsBackoff(t *testing.T) {
	pat, m := testData(t, 6, 100)
	cfg := Config{
		Workers: 2,
		Search:  fastSearch(),
		Retry:   RetryPolicy{MaxAttempts: 2, Backoff: time.Hour, LimitQuarantine: true},
		Fault:   mustInjector(t, fault.Config{Seed: 1, PCrash: 1}),
		Clock:   &backoffClock{},
	}
	before := goroutines()
	done := make(chan error, 1)
	go func() {
		_, err := Supervise(pat, m, Plan(2, 0, 11), cfg)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCampaignAborted) {
			t.Errorf("error %v, want ErrCampaignAborted", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the abort did not end a pending backoff")
	}
	requireNoLeak(t, before)
}
