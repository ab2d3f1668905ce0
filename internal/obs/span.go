package obs

import (
	"strconv"
	"sync/atomic"
	"time"
)

// SpanTracer is the wall-clock sibling of Tracer: it records spans,
// instants and counters for the *real* inference pipeline (campaign, job
// attempts, retries, checkpoints, search rounds, candidate batches) against
// an injected monotonic time source, into the same recorder and
// byte-deterministic Chrome trace-event encoder, with the retention cap
// DefaultMaxSpanEvents.
//
// The clock is injected (wallclock.Monotonic in production, a fake counter
// in tests) because this package sits under the simdeterminism analyzer:
// nothing here may read time.Now, so chaos and golden tests stay
// deterministic. Events arrive from every supervision worker, and
// timestamps are microseconds since the tracer's epoch.
type SpanTracer struct {
	recorder
	now       func() time.Duration
	recording atomic.Bool
}

// NewSpanTracer returns a recording tracer over the given monotonic time
// source (nil panics: a tracer without a clock cannot time anything).
func NewSpanTracer(now func() time.Duration) *SpanTracer {
	if now == nil {
		panic("obs: NewSpanTracer needs a time source (wallclock.Monotonic or a test clock)")
	}
	t := &SpanTracer{recorder: recorder{max: DefaultMaxSpanEvents}, now: now}
	t.recording.Store(true)
	return t
}

// SetRecording toggles event capture. A non-recording tracer still serves
// as the pipeline's time source — spans started on it keep feeding latency
// histograms through EndObserve — it just stops retaining timeline events.
func (t *SpanTracer) SetRecording(on bool) { t.recording.Store(on) }

// usec converts a monotonic offset to the trace "ts" unit (microseconds).
func usec(d time.Duration) int64 { return int64(d / time.Microsecond) }

// Root returns the tracer's root context on the named track. The zero Ctx
// (from an unconfigured pipeline) is valid and disables all tracing, so
// every layer can call through its context unconditionally.
func (t *SpanTracer) Root(track string) Ctx {
	return Ctx{tr: t, track: track}
}

// Ctx is the explicit trace-propagation context threaded through the real
// pipeline (core → mw → search): a tracer handle, the track events land on,
// and the attribution labels (job, worker, round) rendered into
// every span's args. It is a small value, copied freely; the zero Ctx is a
// no-op sink. Label derivation happens on cold paths (per job, per round),
// so hot loops only ever copy the pre-rendered string.
type Ctx struct {
	tr    *SpanTracer
	track string
	args  string // pre-rendered JSON object, "" = no labels
}

// Enabled reports whether this context can reach a tracer at all.
func (c Ctx) Enabled() bool { return c.tr != nil }

// TimeSource exposes the tracer's injected monotonic clock (nil when the
// context is disabled) — the seam layers use to time work for histograms
// without importing a clock themselves.
func (c Ctx) TimeSource() func() time.Duration {
	if c.tr == nil {
		return nil
	}
	return c.tr.now
}

// withArg returns the context with one more rendered key/value pair
// (jsonVal must already be valid JSON — a quoted string or a number).
func (c Ctx) withArg(key, jsonVal string) Ctx {
	if c.tr == nil {
		return c
	}
	if c.args == "" {
		c.args = `{"` + key + `":` + jsonVal + `}`
	} else {
		c.args = c.args[:len(c.args)-1] + `,"` + key + `":` + jsonVal + `}`
	}
	return c
}

// WithTrack moves subsequent events to the named track (e.g. "worker-2").
func (c Ctx) WithTrack(track string) Ctx {
	c.track = track
	return c
}

// WithJob attaches the job label (e.g. "inference#0") to all events.
func (c Ctx) WithJob(job string) Ctx { return c.withArg("job", quoteJSON(job)) }

// WithWorker attaches the supervision worker index to all events.
func (c Ctx) WithWorker(w int) Ctx { return c.withArg("worker", strconv.Itoa(w)) }

// WithRound attaches the search round to all events.
func (c Ctx) WithRound(round int) Ctx { return c.withArg("round", strconv.Itoa(round)) }

// Instant records a zero-duration marker carrying the context's labels.
func (c Ctx) Instant(name, cat string) {
	if c.tr == nil || !c.tr.recording.Load() {
		return
	}
	c.tr.record(c.track, traceEvent{
		ts: usec(c.tr.now()), ph: phaseInstant, name: name, cat: cat, args: c.args,
	})
}

// Counter records a sample of a numeric series on the context's track.
func (c Ctx) Counter(name string, value float64) {
	if c.tr == nil || !c.tr.recording.Load() {
		return
	}
	c.tr.record(c.track, traceEvent{
		ts: usec(c.tr.now()), ph: phaseCounter, name: name, val: value,
	})
}

// Start opens a span. The returned Span must be closed with End or
// EndObserve; a Span from a disabled context is a no-op. The start time is
// captured even when the tracer is not recording, so EndObserve keeps
// feeding latency histograms with the timeline capture switched off.
func (c Ctx) Start(name, cat string) Span {
	if c.tr == nil {
		return Span{}
	}
	return Span{tr: c.tr, track: c.track, name: name, cat: cat, args: c.args, start: c.tr.now()}
}

// Span is one open wall-clock interval; close it with End or EndObserve.
type Span struct {
	tr    *SpanTracer
	track string
	name  string
	cat   string
	args  string
	start time.Duration
}

// End closes the span, recording it when the tracer is recording.
func (s Span) End() {
	if s.tr == nil {
		return
	}
	end := s.tr.now()
	if !s.tr.recording.Load() {
		return
	}
	s.emit(end)
}

// EndObserve closes the span and feeds its duration, in milliseconds, into
// h (nil-safe) — the one-call pattern behind the search.round_ms /
// mw.attempt_ms / checkpoint.save_ms latency histograms. The histogram
// sample and the trace span come from the same clock reading.
func (s Span) EndObserve(h *Histogram) {
	if s.tr == nil {
		return
	}
	end := s.tr.now()
	if h != nil {
		h.Observe(float64(end-s.start) / float64(time.Millisecond))
	}
	if s.tr.recording.Load() {
		s.emit(end)
	}
}

// emit records the completed interval, clamping inverted clocks to zero
// duration rather than writing a corrupt event.
func (s Span) emit(end time.Duration) {
	dur := end - s.start
	if dur < 0 {
		dur = 0
	}
	s.tr.record(s.track, traceEvent{
		ts: usec(s.start), dur: usec(dur), ph: phaseComplete, name: s.name, cat: s.cat, args: s.args,
	})
}
