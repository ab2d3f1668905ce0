// Package obs is the observability layer of the reproduction: timeline
// tracing for both the simulated Cell and the real inference pipeline, a
// unified metrics registry with JSON and Prometheus surfaces, a crash-scoped
// flight recorder, and live introspection endpoints.
//
// The package has five coordinated parts:
//
//   - Tracer records typed span/instant/counter events keyed to simulated
//     time (sim.Time, never the wall clock) and exports them as Chrome
//     trace-event JSON, loadable in Perfetto or chrome://tracing. Output is
//     sorted and byte-deterministic: two runs of the simulator with the
//     same seed and configuration produce identical files, so traces are
//     golden-testable like any other simulator output.
//
//   - SpanTracer is its wall-clock sibling for the *real* pipeline: spans
//     over an injected monotonic time source (wallclock.Monotonic in
//     production, fake counters in tests), threaded through core → mw →
//     search as an explicit Ctx carrying job/worker/round attribution. It
//     covers the campaign, job attempts, retries and backoff, checkpoint
//     save/recover, search rounds, candidate batches and smoothing; kernel
//     calls are timed into per-backend histograms instead of spans (they
//     are too hot for a timeline). The two tracers differ in their clock
//     and their cap: both keep events in one recorder with one
//     deterministic encoder, a timeline holds one clock by type, and only
//     a SpanTracer caps its buffer (DefaultMaxSpanEvents, past which
//     events are counted as dropped).
//
//   - FlightRecorder is a fixed-capacity lock-free ring of structured
//     events — the last few thousand things the supervision layer did —
//     snapshotted automatically into each Quarantine and dumpable live
//     (/debug/flight) or at exit (raxml -flight-out) for post-mortems.
//
//   - Registry is a process-wide metrics surface — counters, gauges and
//     lock-free histograms — that unifies the accounting previously
//     scattered across one-off structs: the likelihood kernel Meter,
//     master-worker supervision Stats, checkpoint events, search progress,
//     and the new latency histograms (search.round_ms, mw.attempt_ms,
//     checkpoint.save_ms, kernel.<backend>.<op>_ms). Snapshots are sorted
//     by name, so both the JSON form and the Prometheus text exposition
//     (WriteProm) are deterministic.
//
//   - The debug HTTP mux (NewDebugMux/StartDebugServer) serves
//     net/http/pprof profiles, expvar, /metrics (JSON, or Prometheus text
//     with ?format=prom), and optionally /debug/flight during a live run,
//     and the slog helpers give every CLI the same structured logging
//     levels (-v/-quiet).
//
// obs sits under the simdeterminism analyzer: nothing in this package may
// read the wall clock (all timing flows through injected time sources),
// draw from the global math/rand source, or iterate a map in randomized
// order on a path that feeds trace, snapshot or exposition output.
package obs
