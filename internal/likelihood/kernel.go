package likelihood

import (
	"fmt"
	"math"
	"math/bits"

	"raxmlcell/internal/phylotree"
)

// scratch is the per-call scratch of the engine's kernels (transition-matrix
// panels, tip-projection tables, Newton sum tables and exponential blocks,
// the backend's operand blocks), reused across calls.
// It is one field of the Engine and has no methods, so that backendpurity
// can tell a write to scratch from a write to engine state by type. The
// only concurrency inside it is the range executor's, whose helpers run
// blocks of the engine's running pass on their own tile (executor.go).
type scratch struct {
	pLeft, pRight []float64 // transition matrices [cat*ns*ns + i*ns + j]
	tipPL, tipPR  []float64 // tip projections [code*nmat*ns + cat*ns + i]

	// Newton-Raphson scratch shared by MakeNewz and the lazy-SPR scorer:
	// the per-pattern eigenmode sum table, λ_k·r_c products, and the
	// exp(λrt) / derivative blocks rebuilt every Newton iteration. sumP and
	// sumQ hold the table's two factors per row of each side, sized by the
	// engine's first buildSumTable. Outside a Newton solve sumTab holds
	// the class tables of the running combine or evaluate (Engine.classTable).
	sumTab, sumP, sumQ     []float64
	lamr                   []float64
	newzE0, newzE1, newzE2 []float64

	// classes is the class pass's table (repeats.go), sized on first use.
	classes classTable

	// tabs are the class tables filed for the next passClassTables, and
	// tabled counts the tables built, for the tests.
	tabs   []classTab
	tabled uint64

	// Backend operand blocks, stored here so passing their address through
	// the Backend interface never escapes into a per-call heap allocation,
	// and so a helper that adopts a block of the running pass finds them.
	// One of each suffices: an engine runs at most one pass at a time, and
	// its blocks share the (read-only) operands.
	combOp combineOp
	evalOp evalOp
	sumOp  sumOp
	newtOp newtonOp

	// parts[b] is where block b of the running pass leaves its part; the
	// caller folds them in block order. job is the pass's claim state
	// (executor.go).
	parts []blockPart
	job   rangeJob

	// tile is the tile scratch of the blocks the engine's owner runs itself,
	// sized as every helper sizes its own.
	tile tileScratch
}

// allocScratch sizes the kernels' scratch for the engine's shape.
func (e *Engine) allocScratch() {
	s := &e.scr
	s.pLeft = make([]float64, e.nmat*ns*ns)
	s.pRight = make([]float64, e.nmat*ns*ns)
	s.tipPL = make([]float64, e.nmat*16*ns)
	s.tipPR = make([]float64, e.nmat*16*ns)
	s.sumTab = make([]float64, e.npat*e.ncat*ns)
	s.lamr = make([]float64, e.nmat*ns)
	s.newzE0 = make([]float64, e.nmat*ns)
	s.newzE1 = make([]float64, e.nmat*ns)
	s.newzE2 = make([]float64, e.nmat*ns)
	s.parts = make([]blockPart, e.nblk)
	s.tabs = make([]classTab, 0, 2)
	if e.nblk >= minPublishBlocks {
		s.job.next.Store(int32(e.nblk)) // nothing to claim until a pass opens
		s.job.idle = make(chan struct{}, 1)
	}
	s.tile.fit(e.ncat)
}

// transitionMatrices fills dst (layout [cat][i][j]) with P(z·rate_c) for
// every rate category. This is the paper's "first loop" (4-25 iterations,
// 36 FP ops each) and the home of the exp() calls that dominated the naive
// SPE port. The eigensystem is read into locals once per call and the
// 4×4×4 product is unrolled in model.GTR.TransitionMatrix's operation order:
// (V·e)·V⁻¹ grouped as the flat three-factor product, each entry summed up
// from zero, so the matrices are that function's, bit for bit.
func (e *Engine) transitionMatrices(z float64, dst []float64) {
	g := e.Mod.GTR
	v, w := g.V, g.VInv
	l0, l1, l2, l3 := g.Lambda[0], g.Lambda[1], g.Lambda[2], g.Lambda[3]
	for cat, rate := range e.Mod.Cats {
		tr := z * rate
		e0, e1, e2, e3 := math.Exp(l0*tr), math.Exp(l1*tr), math.Exp(l2*tr), math.Exp(l3*tr)
		m := (*[ns * ns]float64)(dst[cat*ns*ns:])
		for i := 0; i < ns; i++ {
			a0, a1, a2, a3 := v[i][0]*e0, v[i][1]*e1, v[i][2]*e2, v[i][3]*e3
			r := (*[ns]float64)(m[i*ns:])
			r[0] = nonNegative(0 + a0*w[0][0] + a1*w[1][0] + a2*w[2][0] + a3*w[3][0])
			r[1] = nonNegative(0 + a0*w[0][1] + a1*w[1][1] + a2*w[2][1] + a3*w[3][1])
			r[2] = nonNegative(0 + a0*w[0][2] + a1*w[1][2] + a2*w[2][2] + a3*w[3][2])
			r[3] = nonNegative(0 + a0*w[0][3] + a1*w[1][3] + a2*w[2][3] + a3*w[3][3])
		}
	}
	n := uint64(e.nmat)
	e.Meter.Exps += n * ns
	e.Meter.Muls += n * (ns + ns*ns + ns*ns*ns) // lambda*tr, V·e, (V·e)·V⁻¹
	e.Meter.Adds += n * ns * ns * (ns - 1)
	e.Meter.SmallLoopIters += n
}

// nonNegative clamps the tiny negative round-off of a transition
// probability to zero, as model.GTR.TransitionMatrix does.
func nonNegative(s float64) float64 {
	if s < 0 {
		return 0
	}
	return s
}

// tipProjection fills dst with P·tipvec for the ambiguity codes the
// alignment contains: the RAxML tip-case specialization that replaces a full
// per-pattern matrix-vector product by a table lookup. The layout is
// code-major, [code][cat][i], so one code's entries are laid out like a
// partial-vector row. A one-hot code's entries are the column of P for its
// state: the product's own bits, since x·1 and +x·0 are exact and P holds no
// negative entry and no −0. Only ambiguous codes are multiplied, yet the
// meter counts every code as the product it equals. Entries of codes that
// never occur are never read and stay unset.
func (e *Engine) tipProjection(p []float64, dst []float64) {
	width := e.nmat * ns
	for _, code := range e.tipCodes {
		row := dst[code*width : code*width+width]
		tv := &e.tipVec[code]
		oneHot := code != 0 && code&(code-1) == 0
		j := bits.TrailingZeros(uint(code))
		for cat := 0; cat < e.nmat; cat++ {
			pc := (*[ns * ns]float64)(p[cat*ns*ns:])
			o := (*[ns]float64)(row[cat*ns:])
			if oneHot {
				o[0], o[1], o[2], o[3] = pc[j], pc[ns+j], pc[2*ns+j], pc[3*ns+j]
				continue
			}
			for i := 0; i < ns; i++ {
				s := 0.0
				for k := 0; k < ns; k++ {
					s += pc[i*ns+k] * tv[k]
				}
				o[i] = s
			}
		}
	}
	e.Meter.Muls += uint64(e.nmat * len(e.tipCodes) * ns * ns)
	e.Meter.Adds += uint64(e.nmat * len(e.tipCodes) * ns * (ns - 1))
}

// evaluate computes the log-likelihood of the tree across the branch
// (p, p.Back), optionally filling perSite with per-pattern logs. It is a
// thin timing shell over evaluateKernel so the kernel body keeps its early
// error returns without threading the observer through each of them.
func (e *Engine) evaluate(p *phylotree.Node, perSite []float64) (float64, error) {
	t0 := e.tick()
	logL, err := e.evaluateKernel(p, perSite)
	e.tock(OpEvaluate, t0)
	return logL, err
}

// evaluateKernel is the evaluate body (see evaluate).
func (e *Engine) evaluateKernel(p *phylotree.Node, perSite []float64) (float64, error) {
	q := p.Back
	if q == nil {
		return 0, fmt.Errorf("likelihood: Evaluate on detached branch")
	}
	if p.IsTip() && q.IsTip() {
		return 0, fmt.Errorf("likelihood: tip-tip branch cannot exist in an unrooted tree with >= 3 taxa")
	}
	// Swap so that q is the (possibly) tip side.
	if p.IsTip() {
		p, q = q, p
	}
	pv, err := e.vector(p)
	if err != nil {
		return 0, err
	}
	qv, err := e.vector(q)
	if err != nil {
		return 0, err
	}
	e.Meter.EvaluateCalls++

	e.transitionMatrices(p.Z, e.scr.pLeft)

	var qData []byte
	if q.IsTip() {
		qData = e.Pat.Data[q.Index]
		e.tipProjection(e.scr.pLeft, e.scr.tipPR)
	}

	e.scr.evalOp = evalOp{p: pv, qData: qData, q: qv, perSite: perSite}
	e.scr.evalOp.qTab = e.classTable(&e.scr.evalOp.q, e.scr.pLeft, e.npat)
	e.projectTables()
	e.runPass(passEvaluate)
	return e.foldEval(), nil
}

// foldEval sums the evaluate parts the finished pass left, in block order,
// books their operation counts and returns the log-likelihood.
func (e *Engine) foldEval() float64 {
	total := e.scr.parts[0].eval
	for b := 1; b < e.nblk; b++ {
		p := &e.scr.parts[b].eval
		total.sum += p.sum
		total.st.add(p.st)
		total.underflow += p.underflow
	}
	e.Meter.Muls += total.st.muls
	e.Meter.Adds += total.st.adds
	e.Meter.Logs += total.st.bigIters
	e.underflowSites += total.underflow
	return total.sum
}
