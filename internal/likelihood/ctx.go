package likelihood

import (
	"fmt"
	"math"
	"math/bits"

	"raxmlcell/internal/phylotree"
)

// Ctx is the engine's kernel execution context: all the per-call scratch the
// hot kernels need (transition-matrix panels, tip-projection tables, Newton
// sum tables and exponential blocks, traversal descriptors, Views buffer
// pools) plus the meter/underflow sinks the kernels accumulate into, which
// are Engine.Meter and the engine's underflow counter. An engine has exactly
// one; the only concurrency inside it is the range executor's, whose helpers
// run blocks of the context's running pass on their own tile scratch
// (executor.go).
type Ctx struct {
	eng *Engine

	// meter/underflow are the accumulation sinks: the engine's own counters.
	meter     *Meter
	underflow *uint64

	// Per-call scratch, reused across invocations.
	pLeft, pRight []float64 // transition matrices [cat*ns*ns + i*ns + j]
	tipPL, tipPR  []float64 // tip projections [code*nmat*ns + cat*ns + i]

	// Newton-Raphson scratch shared by MakeNewz and the lazy-SPR scorer:
	// the per-pattern eigenmode sum table, λ_k·r_c products, and the
	// exp(λrt) / derivative blocks rebuilt every Newton iteration. sumP and
	// sumQ hold the table's two factors per row of each side, sized by the
	// context's first buildSumTable. Outside a Newton solve sumTab holds
	// the class tables of the running combine or evaluate (Ctx.classTable).
	sumTab, sumP, sumQ     []float64
	lamr                   []float64
	newzE0, newzE1, newzE2 []float64

	trav []*phylotree.Node // traversal-descriptor scratch

	// classes is the class pass's table (repeats.go), sized on first use.
	classes classTable

	// tabs are the class tables filed for the next passClassTables, and
	// tabled counts the tables built, for the tests.
	tabs   []classTab
	tabled uint64

	// Buffer pools for Views (lazy-SPR directed-vector caches).
	lvPool [][]float64
	scPool [][]int32

	// Backend operand blocks, stored on the context so passing their
	// address through the Backend interface never escapes into a per-call
	// heap allocation, and so a helper that adopts a block of the running
	// pass finds them here. One of each suffices: a context runs at most one
	// pass at a time, and its blocks share the (read-only) operands.
	combOp combineOp
	evalOp evalOp
	sumOp  sumOp
	newtOp newtonOp

	// parts[b] is where block b of the running pass leaves its part; the
	// caller folds them in block order. job is the pass's claim state
	// (executor.go).
	parts []blockPart
	job   rangeJob

	// tile is backend-private scratch (sized by Backend.initCtx) for the
	// blocks the context's owner runs itself.
	tile tileScratch
}

// newCtx builds the engine's kernel context, whose counters are the engine's
// public Meter and underflow total.
func (e *Engine) newCtx() *Ctx {
	c := &Ctx{eng: e, meter: &e.Meter, underflow: &e.underflowSites}
	c.pLeft = make([]float64, e.nmat*ns*ns)
	c.pRight = make([]float64, e.nmat*ns*ns)
	c.tipPL = make([]float64, e.nmat*16*ns)
	c.tipPR = make([]float64, e.nmat*16*ns)
	c.sumTab = make([]float64, e.npat*e.ncat*ns)
	c.lamr = make([]float64, e.nmat*ns)
	c.newzE0 = make([]float64, e.nmat*ns)
	c.newzE1 = make([]float64, e.nmat*ns)
	c.newzE2 = make([]float64, e.nmat*ns)
	c.parts = make([]blockPart, e.nblk)
	c.tabs = make([]classTab, 0, 2)
	if e.nblk >= minPublishBlocks {
		c.job.next.Store(int32(e.nblk)) // nothing to claim until a pass opens
		c.job.idle = make(chan struct{}, 1)
	}
	e.backend.initCtx(c)
	return c
}

// transitionMatrices fills dst (layout [cat][i][j]) with P(z·rate_c) for
// every rate category. This is the paper's "first loop" (4-25 iterations,
// 36 FP ops each) and the home of the exp() calls that dominated the naive
// SPE port. The eigensystem is read into locals once per call and the
// 4×4×4 product is unrolled in model.GTR.TransitionMatrix's operation order:
// (V·e)·V⁻¹ grouped as the flat three-factor product, each entry summed up
// from zero, so the matrices are that function's, bit for bit.
func (c *Ctx) transitionMatrices(z float64, dst []float64) {
	e := c.eng
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
	c.meter.Exps += n * ns
	c.meter.Muls += n * (ns + ns*ns + ns*ns*ns) // lambda*tr, V·e, (V·e)·V⁻¹
	c.meter.Adds += n * ns * ns * (ns - 1)
	c.meter.SmallLoopIters += n
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
func (c *Ctx) tipProjection(p []float64, dst []float64) {
	e := c.eng
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
	c.meter.Muls += uint64(e.nmat * len(e.tipCodes) * ns * ns)
	c.meter.Adds += uint64(e.nmat * len(e.tipCodes) * ns * (ns - 1))
}

// NewView makes the partial likelihood vector behind the internal ring
// record p current; see Engine.NewView for semantics.
func (c *Ctx) NewView(p *phylotree.Node) {
	if p.IsTip() {
		return
	}
	c.trav = c.appendTraversal(c.trav[:0], p)
	for _, nd := range c.trav {
		c.computeView(nd)
	}
}

// appendTraversal builds the traversal descriptor rooted at p: the
// postorder (children before parents) list of ring records whose views are
// missing or cached under a different orientation.
func (c *Ctx) appendTraversal(steps []*phylotree.Node, p *phylotree.Node) []*phylotree.Node {
	if p.IsTip() {
		return steps
	}
	if c.eng.orient[p.Index] == p {
		c.meter.CacheHits++
		return steps
	}
	steps = c.appendTraversal(steps, p.Next.Back)
	steps = c.appendTraversal(steps, p.Next.Next.Back)
	return append(steps, p)
}

// computeView executes one descriptor entry: combine the two child vectors
// of ring record p into p's slot, one row per repeat class of p (numbered
// first if the topology behind p changed since they last were), and record
// the orientation.
func (c *Ctx) computeView(p *phylotree.Node) {
	e := c.eng
	t0 := e.tick()
	q := p.Next.Back
	r := p.Next.Next.Back
	var first []int32
	if e.rep != nil {
		if rs := e.classes(p); rs != nil {
			first = c.firstPatterns(rs)
		} else {
			var qData, rData []byte
			if q.IsTip() {
				qData = e.Pat.Data[q.Index]
			}
			if r.IsTip() {
				rData = e.Pat.Data[r.Index]
			}
			rs = c.classPass(p, qData, e.classes(q), rData, e.classes(r))
			first = c.classes.first[:rs.rows]
		}
	}
	c.combine(q, p.Next.Z, e.slotVec(q), r, p.Next.Next.Z, e.slotVec(r),
		vec{lv: e.lv[p.Index], sc: e.scale[p.Index]}, first)
	e.orient[p.Index] = p
	e.tock(OpNewview, t0)
}

// evaluate computes the log-likelihood of the tree across the branch
// (p, p.Back), optionally filling perSite with per-pattern logs. It is a
// thin timing shell over evaluateKernel so the kernel body keeps its early
// error returns without threading the observer through each of them.
func (c *Ctx) evaluate(p *phylotree.Node, perSite []float64) (float64, error) {
	t0 := c.eng.tick()
	logL, err := c.evaluateKernel(p, perSite)
	c.eng.tock(OpEvaluate, t0)
	return logL, err
}

// evaluateKernel is the evaluate body (see evaluate).
func (c *Ctx) evaluateKernel(p *phylotree.Node, perSite []float64) (float64, error) {
	e := c.eng
	q := p.Back
	if q == nil {
		return 0, fmt.Errorf("likelihood: Evaluate on detached branch")
	}
	if p.IsTip() && q.IsTip() {
		return 0, fmt.Errorf("likelihood: tip-tip branch cannot exist in an unrooted tree with >= 3 taxa")
	}
	// Orient so that q is the (possibly) tip side.
	if p.IsTip() {
		p, q = q, p
	}
	c.NewView(p)
	c.NewView(q)
	c.meter.EvaluateCalls++

	c.transitionMatrices(p.Z, c.pLeft)

	var qData []byte
	if q.IsTip() {
		qData = e.Pat.Data[q.Index]
		c.tipProjection(c.pLeft, c.tipPR)
	}

	c.evalOp = evalOp{p: e.slotVec(p), qData: qData, q: e.slotVec(q), perSite: perSite}
	c.evalOp.qTab = c.classTable(&c.evalOp.q, c.pLeft, e.npat)
	c.projectTables()
	c.runPass(passEvaluate)
	return c.foldEval(), nil
}

// foldEval sums the evaluate parts the finished pass left, in block order,
// books their operation counts and returns the log-likelihood.
func (c *Ctx) foldEval() float64 {
	total := c.parts[0].eval
	for b := 1; b < c.eng.nblk; b++ {
		p := &c.parts[b].eval
		total.sum += p.sum
		total.st.add(p.st)
		total.underflow += p.underflow
	}
	c.meter.Muls += total.st.muls
	c.meter.Adds += total.st.adds
	c.meter.Logs += total.st.bigIters
	*c.underflow += total.underflow
	return total.sum
}
