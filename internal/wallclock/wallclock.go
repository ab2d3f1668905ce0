// Package wallclock provides the real-time implementation of fault.Clock.
//
// It is a separate package on purpose: the raxmlvet simdeterminism analyzer
// bars internal/mw and internal/fault from touching the wall clock, so the
// supervision layer only ever sees an injected Clock. Production entry
// points (cmd/raxml, internal/core) inject Clock{} here; deterministic
// tests inject their own.
package wallclock

import (
	"time"

	"raxmlcell/internal/fault"
)

// Clock is the wall-clock fault.Clock.
type Clock struct{}

var _ fault.Clock = Clock{}

// After returns a channel that receives after d of real time.
func (Clock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Monotonic returns a monotonic elapsed-time source anchored at the moment
// of the call: each invocation of the returned function reports the real
// time elapsed since Monotonic() itself ran. This is the injection seam for
// the wall-clock observability layer (obs.SpanTracer, latency histograms):
// internal/obs and internal/mw are barred from time.Now by the
// simdeterminism analyzer, so production entry points (cmd/raxml,
// internal/core) mint the time source here and tests substitute
// deterministic counters.
func Monotonic() func() time.Duration {
	start := time.Now()
	return func() time.Duration { return time.Since(start) }
}
