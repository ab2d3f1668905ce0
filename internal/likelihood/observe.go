package likelihood

import "time"

// KernelOp identifies one of the three PLF kernel entry points, the unit at
// which external observers receive per-call latencies. The values are dense
// so an observer can index a fixed array by op without any lookup on the
// hot path.
type KernelOp int

const (
	// OpNewview is one ancestral-vector recomputation: numbering the
	// node's repeat classes when its topology changed, transition matrices,
	// tip projections and combineRows. A prescore is timed as one too.
	OpNewview KernelOp = iota
	// OpMakenewz is the Newton-Raphson branch-length solve: building the
	// sum table and iterating on it; the newviews before it are their own.
	OpMakenewz
	// OpEvaluate is a full log-likelihood evaluation at the virtual root.
	OpEvaluate

	// NumKernelOps bounds KernelOp for array-indexed observers.
	NumKernelOps
)

// String names the op as it appears in metric names (kernel.<backend>.<op>_ms).
func (op KernelOp) String() string {
	switch op {
	case OpNewview:
		return "newview"
	case OpMakenewz:
		return "makenewz"
	case OpEvaluate:
		return "evaluate"
	}
	return "unknown"
}

// KernelObserver receives the elapsed wall time of individual kernel calls.
// It is the likelihood package's outward-facing observability seam: obs
// adapts it onto latency histograms, and this package stays free of any
// dependency on the metrics layer (the import runs obs → likelihood, never
// back). Implementations must be safe for concurrent use — engines time
// kernels from every search worker — and must not allocate per call; the
// engine invokes the observer on the hottest paths in the system.
type KernelObserver interface {
	ObserveKernel(op KernelOp, elapsed time.Duration)
}

// tick reads the engine's clock when a kernel observer is attached (0
// otherwise); tock reports the time since t0 as one call of op.
func (e *Engine) tick() time.Duration {
	if e.kobs == nil {
		return 0
	}
	return e.know()
}

func (e *Engine) tock(op KernelOp, t0 time.Duration) {
	if e.kobs != nil {
		e.kobs.ObserveKernel(op, e.know()-t0)
	}
}
