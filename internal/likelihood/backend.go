package likelihood

import (
	"fmt"
	"math"
)

// Backend is the compute contract behind the engine: the per-pattern inner
// loops of the three paper kernels (newview/combine, evaluate, and the two
// halves of makenewz's Newton iteration), factored out of the traversal,
// caching and scheduling machinery so alternative loop structures can be
// swapped in without touching search code.
//
// Everything outside the contract is backend-independent and stays in the
// Engine: the vector store and its invalidation, transition-matrix and
// tip-projection table construction, the
// Newton solver driver, numerical scaling policy, and the block executor
// that spreads a pass over idle CPUs (executor.go). A backend only answers
// "given these operands, compute patterns (or rows) [lo, hi)" — which is exactly the
// seam BEAGLE 4.1 draws around its CPU/SSE/GPU implementations, and the Go
// analogue of the paper swapping restructured SPU loops under an unchanged
// search. Below the seam the batched backend has a second one of BEAGLE's
// kind: its hot tile loops run 4-wide AVX bodies where the CPU has them
// (simdKernels, avx_amd64.s) and its Go loops elsewhere, with the same bits.
//
// Concurrency: a backend must be stateless, because the executor runs
// several blocks of one pass concurrently, some of them on helper goroutines
// that do not own the engine. Each method reads the engine and its scratch
// and receives the tile scratch of the goroutine that runs it (the engine's
// own for its owner, the helper's own otherwise), so tiles never alias
// across a pass; it writes only its block's elements of the operands and of
// the scratch, and returns its statistics in a part value (backendpurity).
//
// Numerics: backends must reproduce the scalar reference within 1e-9
// relative log-likelihood on any workload (the 42sc cross-validation gate
// enforces this for both backends); they keep the per-element accumulation
// order of the reference loops, so they agree bit for bit where the compiler
// does not re-fuse floating point ops. On amd64 it fuses only an explicit
// math.FMA, which this package never calls, at any GOAMD64 level (a v3 build
// of the package holds no fused op), and the vector bodies use no fused
// multiply-add: each lane rounds every product and sum on its own, as the Go
// loops do. arm64 fuses x*y+z by default, so no bits are claimed there.
type Backend interface {
	// Name reports the backend's name ("scalar" or "batched").
	Name() string

	// readsClassTables reports whether combineRows and evaluateRange read
	// an inner child through its class table (combineOp.qTab/rTab,
	// evalOp.qTab) when the engine builds one (Engine.classTable), instead
	// of projecting it per row.
	readsClassTables() bool

	// combineRows executes the newview inner loop for rows [pr.lo, pr.hi)
	// of the destination: each row's children gathered at the pattern it
	// stands for (op.first) through their class maps, projected through the
	// transition matrices prepared in e.scr.pLeft/pRight (tip children via
	// the e.scr.tipPL/tipPR tables, inner ones via their class tables if
	// they have one), their elementwise product into op.dst (whose first row
	// is op.dstLo), and the 2^-256 scaling check per row.
	combineRows(e *Engine, op *combineOp, pr patRange, ts *tileScratch) combineStats

	// evaluateRange executes the evaluate inner loop for patterns
	// [pr.lo, pr.hi), each side gathered through its class map: the q-side
	// projection through e.scr.pLeft (tips via e.scr.tipPR, an inner side via
	// its class table if it has one) unless op.qProj already holds it, the
	// frequency-weighted dot product against op.p (whose first row is
	// op.pLo), the per-pattern log with scaling counters folded back, and
	// the weighted log-likelihood sum of the range.
	evaluateRange(e *Engine, op *evalOp, pr patRange, ts *tileScratch) evalPart

	// sumTableFactors computes the two factors of the Newton eigenmode sum
	// table A[pat,c,k] = (Σ_i π_i·x_i·V_ik)·(Σ_j W_kj·y_j), each once per row
	// of its side: e.scr.sumP for rows pr of op.p, e.scr.sumQ for rows qr of
	// op.q (of the codes 0–15 for a tip). Engine.sumTableProducts multiplies
	// them per pattern.
	sumTableFactors(e *Engine, op *sumOp, pr, qr patRange, ts *tileScratch) sumPart

	// newtonDerivRange is the pass every Newton iteration makes: it reduces
	// (dlogL/dt, d2logL/dt2) over patterns [pr.lo, pr.hi) from e.scr.sumTab
	// and the three exponential blocks. The iterate depends only on d1/d2,
	// so the pass takes no logarithm.
	newtonDerivRange(e *Engine, op *newtonOp, pr patRange, ts *tileScratch) derivPart

	// newtonValueRange is the pass a solve makes once, at the point it
	// returns: the weighted log-likelihood sum of patterns [pr.lo, pr.hi)
	// from e.scr.sumTab and op.e0 alone — a third of the derivative pass's
	// table arithmetic and exactly one log per pattern.
	newtonValueRange(e *Engine, op *newtonOp, pr patRange, ts *tileScratch) valuePart
}

// Reduction helpers shared by the backends.
const minPositive = math.SmallestNonzeroFloat64

// patRange is a contiguous range of patterns [lo, hi), or of rows in a
// combine: one block of a pass.
type patRange struct{ lo, hi int }

// combineStats are the per-range meter contributions of the newview loop.
type combineStats struct {
	muls, adds               uint64
	bigIters                 uint64
	scaleChecks, scaleEvents uint64
}

func (s *combineStats) add(o combineStats) {
	s.muls += o.muls
	s.adds += o.adds
	s.bigIters += o.bigIters
	s.scaleChecks += o.scaleChecks
	s.scaleEvents += o.scaleEvents
}

// combineOp is the operand set of one combine (newview) call. Tip children
// carry their pattern codes in qData/rData (and zero vecs); inner children
// carry their vecs, and qTab/rTab their class tables if they have one. The
// destination has rows rows, row i standing for pattern first[i] (first nil:
// one row per pattern). The transition matrices and tip-projection tables
// for the call are already prepared in the engine's scratch.
// dst and dstScale begin at row dstLo: 0 for a whole vector, the block's
// first pattern when a prescore block combines into its own scratch.
type combineOp struct {
	qData, rData []byte    // tip pattern codes (nil for inner children)
	q, r         vec       // inner children (zero for tips)
	qTab, rTab   []float64 // class tables, [class][cat][state] (nil: none)
	first        []int32
	rows         int
	dst          []float64
	dstScale     []int32
	dstLo        int
}

// evalOp is the operand set of one evaluate call across a branch (p, q):
// the p-side is always an inner vector, the q-side a tip (qData) or inner
// vector (q) for the kernel to carry across the branch — or, when qProj is
// set, a q-side that already has been (Engine.CarryAcross), laid out like a
// vector of one row per pattern, with q.sc its scale counts. qTab is an
// inner q's class table, if it has one. p's rows begin at row pLo, like
// combineOp's dst. perSite, when non-nil, receives the per-pattern logs.
type evalOp struct {
	qProj   []float64
	qTab    []float64
	p       vec
	pLo     int
	qData   []byte
	q       vec
	perSite []float64
}

// evalPart is one range's contribution to an evaluate reduction.
type evalPart struct {
	sum       float64
	st        combineStats
	underflow uint64
}

// sumOp is the operand set of the Newton sum-table build: the two branch
// endpoint vectors (q-side possibly a tip) and the rows of each.
type sumOp struct {
	p            vec
	qData        []byte
	q            vec
	pRows, qRows int
}

// sumPart is one range's contribution to the sum-table build: the
// t-independent scaling constant plus the operation counts.
type sumPart struct {
	scaleConst float64
	muls, adds uint64
}

// newtonOp carries the exponential blocks of one point on the branch
// (e0 = exp(λrt), e1 = λr·e0, e2 = (λr)²·e0, one ns-block per distinct
// rate matrix) and the pattern weights. The value pass reads e0 only.
type newtonOp struct {
	e0, e1, e2 []float64
	weights    []int
}

// derivPart is one range's contribution to a derivative pass.
type derivPart struct {
	d1, d2    float64
	underflow uint64
}

// valuePart is one range's contribution to a value pass.
type valuePart struct {
	ll        float64
	underflow uint64
}

// DefaultBackend is the backend used when Config.Backend is empty: the
// pattern-tiled kernels, bit-identical to the scalar reference and faster
// per pattern in every measured cell. "scalar" stays as the oracle the tests
// and the benchmark compare against.
const DefaultBackend = "batched"

// Backends lists the backend names, sorted, for flag help and for harnesses
// that cross-validate every backend.
func Backends() []string { return []string{"batched", "scalar"} }

// newBackend resolves a Config.Backend value ("" selects DefaultBackend).
func newBackend(name string) (Backend, error) {
	switch name {
	case "", "batched":
		return batchedBackend{}, nil
	case "scalar":
		return scalarBackend{}, nil
	}
	return nil, fmt.Errorf("likelihood: unknown backend %q (registered: %v)", name, Backends())
}
