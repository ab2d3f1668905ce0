// Package likelihood implements the three kernels the paper offloads to the
// Cell SPEs: newview (partial likelihood vectors via Felsenstein pruning,
// with numerical scaling), makenewz (Newton-Raphson branch-length
// optimization), and evaluate (the log-likelihood of the tree at a branch).
//
// Each kernel meters its own operation mix — floating point multiplies/adds,
// exp/log calls, scaling-check comparisons and their outcomes, loop trip
// counts and streamed bytes. The Cell runtime (internal/cellrt) converts
// those counts to SPE cycles under the active optimization stage, which is
// how the paper's Tables 1-7 arise from first principles rather than from
// hard-coded timings.
package likelihood

import "fmt"

// Meter accumulates kernel operation counts. A Meter is not safe for
// concurrent use; every worker owns its own Engine and Meter.
type Meter struct {
	NewviewCalls  uint64
	MakenewzCalls uint64
	EvaluateCalls uint64
	NewtonIters   uint64

	Muls uint64 // floating point multiplications
	Adds uint64 // floating point additions
	Exps uint64 // exponential evaluations
	Logs uint64 // logarithm evaluations

	ScaleChecks uint64 // executions of the 8-condition scaling if()
	ScaleEvents uint64 // times the scaling branch body ran

	SmallLoopIters uint64 // transition-matrix loop iterations
	BigLoopIters   uint64 // patterns the newview loops covered (per pattern x invocation)

	// CombineRows counts the rows the newview loops computed: one per repeat
	// class of the vector's record (repeats.go), so CombineRows/BigLoopIters
	// is the share of the covered patterns that cost a row. ClassPasses
	// counts the passes that numbered a record's classes.
	CombineRows uint64
	ClassPasses uint64

	BytesStreamed uint64 // likelihood-vector bytes read+written by the big loop

	TipTipCalls     uint64 // newview specialization usage
	TipInnerCalls   uint64
	InnerInnerCalls uint64

	// CacheHits counts reads of a vector the store holds, at the top of a
	// read or inside a newview's recursion: newview work avoided, not
	// performed. All other counters always
	// reflect only the operations actually executed.
	CacheHits uint64

	// SharedHits always reads 0. It stays only because the benchmark reads
	// it; ROADMAP item 10(a) retires it.
	SharedHits uint64
}

// Add accumulates other into m.
func (m *Meter) Add(other *Meter) {
	m.NewviewCalls += other.NewviewCalls
	m.MakenewzCalls += other.MakenewzCalls
	m.EvaluateCalls += other.EvaluateCalls
	m.NewtonIters += other.NewtonIters
	m.Muls += other.Muls
	m.Adds += other.Adds
	m.Exps += other.Exps
	m.Logs += other.Logs
	m.ScaleChecks += other.ScaleChecks
	m.ScaleEvents += other.ScaleEvents
	m.SmallLoopIters += other.SmallLoopIters
	m.BigLoopIters += other.BigLoopIters
	m.CombineRows += other.CombineRows
	m.ClassPasses += other.ClassPasses
	m.BytesStreamed += other.BytesStreamed
	m.TipTipCalls += other.TipTipCalls
	m.TipInnerCalls += other.TipInnerCalls
	m.InnerInnerCalls += other.InnerInnerCalls
	m.CacheHits += other.CacheHits
	m.SharedHits += other.SharedHits
}

// Flops returns the total floating point operation count (muls + adds).
func (m *Meter) Flops() uint64 { return m.Muls + m.Adds }

// RowShare is CombineRows/BigLoopIters: the share of the patterns the
// newview loops covered that they computed a row for (1 without repeats, 0
// before any newview).
func (m *Meter) RowShare() float64 {
	if m.BigLoopIters == 0 {
		return 0
	}
	return float64(m.CombineRows) / float64(m.BigLoopIters)
}

// String gives a compact profile summary, mirroring the gprof-style numbers
// quoted in Section 5.2 of the paper.
func (m *Meter) String() string {
	return fmt.Sprintf(
		"newview=%d makenewz=%d evaluate=%d flops=%d (mul=%d add=%d) exp=%d log=%d scaleChecks=%d scaleEvents=%d bigIters=%d rows=%d classPasses=%d bytes=%d cacheHits=%d sharedHits=%d",
		m.NewviewCalls, m.MakenewzCalls, m.EvaluateCalls,
		m.Flops(), m.Muls, m.Adds, m.Exps, m.Logs,
		m.ScaleChecks, m.ScaleEvents, m.BigLoopIters, m.CombineRows, m.ClassPasses, m.BytesStreamed, m.CacheHits, m.SharedHits)
}
