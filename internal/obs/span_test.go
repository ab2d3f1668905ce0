package obs_test

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"raxmlcell/internal/obs"
)

// stepClock returns a deterministic monotonic source advancing step per
// read — the test stand-in for wallclock.Monotonic.
func stepClock(step time.Duration) func() time.Duration {
	var n atomic.Int64
	return func() time.Duration { return time.Duration(n.Add(1)) * step }
}

// buildTimeline drives one fixed sequence of spans, instants and counters
// through a tracer — the shared script of the golden-determinism test.
func buildTimeline(tr *obs.SpanTracer) {
	root := tr.Root("campaign")
	csp := root.Start("campaign", "mw")
	for w := 0; w < 2; w++ {
		wctx := root.WithTrack("worker-" + string(rune('0'+w))).WithWorker(w)
		jctx := wctx.WithJob("inference#0")
		asp := jctx.Start("attempt", "mw")
		rsp := jctx.WithRound(1).Start("round", "search")
		jctx.Instant("quarantine", "mw")
		jctx.Counter("logl", -1234.5)
		rsp.End()
		asp.End()
	}
	csp.End()
}

func TestSpanTracerGoldenDeterminism(t *testing.T) {
	render := func() []byte {
		tr := obs.NewSpanTracer(stepClock(time.Microsecond))
		buildTimeline(tr)
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("identical timelines rendered differently:\n%s\n---\n%s", a, b)
	}
	n, err := obs.ValidateTrace(bytes.NewReader(a))
	if err != nil {
		t.Fatalf("ValidateTrace: %v\n%s", err, a)
	}
	// 2 workers x (attempt span + round span + instant + counter) + the
	// campaign span, plus two metadata events (name + sort index) for each
	// of the three tracks.
	if want := 2*4 + 1 + 3*2; n != want {
		t.Fatalf("trace has %d events, want %d\n%s", n, want, a)
	}
	for _, frag := range []string{
		`"job":"inference#0"`, `"worker":1`, `"round":1`,
		`"name":"quarantine"`, `"thread_name"`,
	} {
		if !strings.Contains(string(a), frag) {
			t.Errorf("trace missing %s\n%s", frag, a)
		}
	}
}

func TestSpanTracerConcurrent(t *testing.T) {
	tr := obs.NewSpanTracer(stepClock(time.Microsecond))
	root := tr.Root("main")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := root.WithTrack("worker").WithWorker(g)
			for i := 0; i < 200; i++ {
				sp := ctx.Start("attempt", "mw")
				ctx.Instant("tick", "mw")
				sp.End()
			}
		}(g)
	}
	wg.Wait()
	if got := tr.Len(); got != 8*200*2 {
		t.Fatalf("retained %d events, want %d", got, 8*200*2)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ValidateTrace(&buf); err != nil {
		t.Fatalf("ValidateTrace after concurrent recording: %v", err)
	}
}

func TestSpanTracerCapAndDrops(t *testing.T) {
	// Both clocks record DefaultMaxSpanEvents + 3 events, the last on a
	// track no earlier event named. A SpanTracer keeps the cap and counts
	// the rest; a Tracer, which has no cap, keeps them all.
	const extra = 3
	sim := obs.NewTracer()
	for i := 0; i < obs.DefaultMaxSpanEvents+extra-1; i++ {
		sim.Instant("main", "tick", "t", 0)
	}
	sim.Counter("late", "n", 1, 1)

	// The wall-clock cap is filled from several goroutines at once: every
	// event is either kept or counted, none is lost or kept twice.
	const workers = 4
	wall := obs.NewSpanTracer(stepClock(time.Microsecond))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := wall.Root("worker-" + string(rune('0'+w)))
			for i := 0; i < obs.DefaultMaxSpanEvents/workers; i++ {
				ctx.Instant("tick", "t")
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < extra-1; i++ {
		wall.Root("worker-0").Instant("tick", "t")
	}
	wall.Root("late").Counter("n", 1)

	for _, c := range []struct {
		name string
		tr   interface {
			Len() int
			Dropped() uint64
			WriteJSON(io.Writer) error
		}
		kept, dropped, tracks int
	}{
		{"sim-time", sim, obs.DefaultMaxSpanEvents + extra, 0, 2},
		{"wall-clock", wall, obs.DefaultMaxSpanEvents, extra, workers},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.tr.Len() != c.kept {
				t.Fatalf("Len = %d, want %d", c.tr.Len(), c.kept)
			}
			if c.tr.Dropped() != uint64(c.dropped) {
				t.Fatalf("Dropped = %d, want %d", c.tr.Dropped(), c.dropped)
			}
			var buf bytes.Buffer
			if err := c.tr.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			// A dropped event registers no track: "late" has a tid and
			// thread-name metadata only where its event was kept.
			if got := strings.Contains(buf.String(), `"late"`); got != (c.dropped == 0) {
				t.Fatalf(`track "late" in the file: %v`, got)
			}
			// The retained events + 2 metadata events per track.
			if n, err := obs.ValidateTrace(&buf); err != nil || n != c.kept+2*c.tracks {
				t.Fatalf("trace: %d events, err %v", n, err)
			}
		})
	}
}

// TestSpanTracerSharesTracerEncoding records one timeline through each
// clock — the same tracks, names, timestamps and recording order — and
// checks both tracers write the same bytes: one recorder, one encoder.
func TestSpanTracerSharesTracerEncoding(t *testing.T) {
	sim := obs.NewTracer()
	sim.Instant("sched", "claim", "sched", 5)
	sim.Counter("scheduler", "jobs-pending", 5, 4)
	sim.Span("ppe", "phase", "ppe", 0, 90)
	sim.Instant("sched", "adopt", "sched", 90)

	var now time.Duration
	wall := obs.NewSpanTracer(func() time.Duration { return now })
	root := wall.Root("ppe")
	sp := root.Start("phase", "ppe")
	now = 5 * time.Microsecond
	root.WithTrack("sched").Instant("claim", "sched")
	root.WithTrack("scheduler").Counter("jobs-pending", 4)
	now = 90 * time.Microsecond
	sp.End()
	root.WithTrack("sched").Instant("adopt", "sched")

	var a, b bytes.Buffer
	if err := sim.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := wall.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("the two clocks encode one timeline differently:\nsim-time:\n%s\nwall-clock:\n%s", a.Bytes(), b.Bytes())
	}
	if n, err := obs.ValidateTrace(&a); err != nil || n != 4+2*3 {
		t.Fatalf("shared timeline: %d events, err %v", n, err)
	}
}

func TestSpanTracerNonRecordingStillObserves(t *testing.T) {
	tr := obs.NewSpanTracer(stepClock(time.Microsecond))
	tr.SetRecording(false)
	reg := obs.NewRegistry()
	h := reg.Histogram("mw.attempt_ms", obs.MsBuckets)

	sp := tr.Root("main").Start("attempt", "mw")
	sp.EndObserve(h)
	if tr.Len() != 0 {
		t.Fatalf("non-recording tracer retained %d events", tr.Len())
	}
	snap := reg.Snapshot()
	if len(snap.Histograms) != 1 || snap.Histograms[0].Count != 1 {
		t.Fatalf("EndObserve did not feed the histogram: %+v", snap.Histograms)
	}
	if snap.Histograms[0].Sum <= 0 {
		t.Fatalf("histogram sum %v, want > 0", snap.Histograms[0].Sum)
	}
}

func TestSpanTracerNilClockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSpanTracer(nil) did not panic")
		}
	}()
	obs.NewSpanTracer(nil)
}

func TestZeroCtxIsNoop(t *testing.T) {
	var ctx obs.Ctx
	if ctx.Enabled() {
		t.Fatal("zero Ctx reports enabled")
	}
	if ctx.TimeSource() != nil {
		t.Fatal("zero Ctx has a time source")
	}
	// None of these may panic.
	ctx = ctx.WithTrack("x").WithJob("j").WithWorker(1).WithRound(2)
	ctx.Instant("i", "c")
	ctx.Counter("n", 1)
	sp := ctx.Start("s", "c")
	sp.End()
	sp.EndObserve(nil)
}
