package likelihood

import "time"

// KernelOp identifies one of the three PLF kernel entry points, the unit at
// which external observers receive per-call latencies. The values are dense
// so an observer can index a fixed array by op without any lookup on the
// hot path.
type KernelOp int

const (
	// OpNewview is the combine step of NewView: one ancestral-vector
	// recomputation (transition matrices + tip projection + combineRows).
	OpNewview KernelOp = iota
	// OpMakenewz is the Newton-Raphson branch-length solve over a summary
	// table.
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
