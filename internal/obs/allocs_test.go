package obs_test

import (
	"testing"
	"time"

	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/obs"
)

// The obs helpers ride the hot paths they instrument: Histogram.Observe and
// the kernel-observer adapter run once per kernel call, FlightRecorder.Record
// on every supervision event, and a span brackets every round and candidate
// batch whether or not the timeline is recorded. The tests below count every
// allocation of each, callees included.

// TestHistogramObserveDoesNotAllocate: a sample, in any bucket, allocates
// nothing.
func TestHistogramObserveDoesNotAllocate(t *testing.T) {
	h := obs.NewRegistry().Histogram("x_ms", obs.MsBuckets)
	v := 0.0
	if n := testing.AllocsPerRun(100, func() {
		h.Observe(v)
		v += 7.5
	}); n != 0 {
		t.Errorf("Histogram.Observe allocates %v times per sample", n)
	}
}

// TestKernelHistsObserveDoesNotAllocate: the kernel-observer adapter
// allocates nothing per kernel call.
func TestKernelHistsObserveDoesNotAllocate(t *testing.T) {
	k := obs.NewKernelHists(obs.NewRegistry(), "batched")
	op := likelihood.KernelOp(0)
	if n := testing.AllocsPerRun(100, func() {
		k.ObserveKernel(op, 40*time.Microsecond)
		op = (op + 1) % likelihood.NumKernelOps
	}); n != 0 {
		t.Errorf("KernelHists.ObserveKernel allocates %v times per call", n)
	}
}

// TestFlightRecordAllocatesOneEvent: recording allocates the event it
// publishes and nothing else, whether or not the ring has wrapped.
func TestFlightRecordAllocatesOneEvent(t *testing.T) {
	f := obs.NewFlightRecorder(16, stepClock(time.Millisecond))
	if n := testing.AllocsPerRun(100, func() {
		f.Record("attempt-failed", "inference#3", 2, 1, "worker crashed")
	}); n != 1 {
		t.Errorf("FlightRecorder.Record allocates %v times per event, want 1 (the event)", n)
	}
}

// TestSpanNotRecordingDoesNotAllocate: on a tracer that does not record,
// and on the zero Ctx, spans, instants and counters allocate nothing;
// EndObserve still feeds its histogram.
func TestSpanNotRecordingDoesNotAllocate(t *testing.T) {
	tr := obs.NewSpanTracer(stepClock(time.Microsecond))
	tr.SetRecording(false)
	reg := obs.NewRegistry()
	h := reg.Histogram("round_ms", obs.MsBuckets)
	for _, c := range []struct {
		name string
		ctx  obs.Ctx
	}{
		{"not-recording", tr.Root("search").WithJob("inference#0").WithRound(2)},
		{"zero-ctx", obs.Ctx{}},
	} {
		if n := testing.AllocsPerRun(100, func() {
			c.ctx.Start("candidates", "search").End()
			c.ctx.Start("round", "search").EndObserve(h)
			c.ctx.Instant("quarantine", "mw")
			c.ctx.Counter("logl", -1234.5)
		}); n != 0 {
			t.Errorf("%s: a span, an instant and a counter allocate %v times", c.name, n)
		}
	}
	if s := reg.Snapshot(); s.Histograms[0].Count == 0 {
		t.Error("EndObserve on a non-recording tracer fed no sample")
	}
	if tr.Len() != 0 {
		t.Errorf("a non-recording tracer holds %d events", tr.Len())
	}
}
