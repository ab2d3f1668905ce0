package likelihood

import (
	"fmt"

	"raxmlcell/internal/phylotree"
)

// Ctx is one kernel execution context: all the per-call scratch the hot
// kernels need (transition-matrix panels, tip-projection tables, Newton sum
// tables and exponential blocks, traversal descriptors, Views buffer pools)
// plus the meter/underflow sinks the kernels accumulate into.
//
// The engine owns a primary context whose sinks are Engine.Meter and the
// engine's underflow counter, so the public Engine API behaves exactly as
// before. Engine.NewCtx mints additional worker contexts for task-level
// parallelism (concurrent SPR candidate scoring); each accumulates into
// private counters that Pool merges back deterministically after every
// fan-out. Two goroutines may run kernels concurrently iff each owns its own
// Ctx: the engine state they share (patterns, model, tip vectors, exp
// function) is read-only, and so are the per-node lv/scale/orient tables
// during a fan-out: workers read the slots and compute what the slots do not
// hold into their own Views.
type Ctx struct {
	eng *Engine

	// meter/underflow are the accumulation sinks: the engine's own
	// counters for the primary context, the private fields below for pool
	// workers (merged in worker order by Pool.Run, see mergeInto).
	meter     *Meter
	underflow *uint64

	ownMeter     Meter
	ownUnderflow uint64

	// Per-call scratch, reused across invocations.
	pLeft, pRight []float64 // transition matrices [cat*ns*ns + i*ns + j]
	tipPL, tipPR  []float64 // tip projections [cat*16*ns + code*ns + i]

	// Newton-Raphson scratch shared by MakeNewz and the lazy-SPR scorer:
	// the per-pattern eigenmode sum table, λ_k·r_c products, and the
	// exp(λrt) / derivative blocks rebuilt every Newton iteration. Living
	// on the context (not the engine, where PR 2 hoisted them) keeps
	// concurrent Newton solves from aliasing each other's buffers. sumP and
	// sumQ hold the table's two factors per row of each side, sized by the
	// context's first buildSumTable.
	sumTab, sumP, sumQ     []float64
	lamr                   []float64
	newzE0, newzE1, newzE2 []float64

	trav []*phylotree.Node // traversal-descriptor scratch

	// classes is the class pass's table (repeats.go), sized on first use:
	// only contexts that recompute node slots run class passes.
	classes classTable

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

// NewCtx returns a fresh worker context over the engine. Its kernel
// counters accumulate privately until merged into the engine (Pool does
// this after every fan-out); use the Engine methods directly when no
// task-level concurrency is involved.
func (e *Engine) NewCtx() *Ctx {
	c := &Ctx{eng: e}
	c.meter = &c.ownMeter
	c.underflow = &c.ownUnderflow
	c.alloc()
	return c
}

// newPrimaryCtx builds the engine-owned context whose counters are the
// engine's public Meter and underflow total.
func (e *Engine) newPrimaryCtx() *Ctx {
	c := &Ctx{eng: e}
	c.meter = &e.Meter
	c.underflow = &e.underflowSites
	c.alloc()
	return c
}

func (c *Ctx) alloc() {
	e := c.eng
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
	if e.nblk >= minPublishBlocks {
		c.job.next.Store(int32(e.nblk)) // nothing to claim until a pass opens
		c.job.idle = make(chan struct{}, 1)
	}
	e.backend.initCtx(c)
}

// Engine returns the engine this context runs kernels for.
func (c *Ctx) Engine() *Engine { return c.eng }

// mergeInto folds the context's private counters into the engine and
// resets them. Pool.Run calls it in worker order after every fan-out;
// uint64 addition commutes, so the merged totals do not depend on how the
// scheduler interleaved the workers.
func (c *Ctx) mergeInto(e *Engine) {
	e.Meter.Add(&c.ownMeter)
	e.underflowSites += c.ownUnderflow
	c.ownMeter.Reset()
	c.ownUnderflow = 0
}

// transitionMatrices fills dst (layout [cat][i][j]) with P(z·rate_c) for
// every rate category. This is the paper's "first loop" (4-25 iterations,
// 36 FP ops each) and the home of the exp() calls that dominated the naive
// SPE port.
func (c *Ctx) transitionMatrices(z float64, dst []float64) {
	e := c.eng
	g := e.Mod.GTR
	for cat := 0; cat < e.nmat; cat++ {
		tr := z * e.Mod.Cats[cat]
		var expl [ns]float64
		for k := 0; k < ns; k++ {
			expl[k] = e.expFn(g.Lambda[k] * tr)
		}
		c.meter.Exps += ns
		c.meter.Muls += ns // lambda*tr
		base := cat * ns * ns
		for i := 0; i < ns; i++ {
			// (V·e)·V⁻¹ groups as the flat three-factor product does.
			var ve [ns]float64
			for k := 0; k < ns; k++ {
				ve[k] = g.V[i][k] * expl[k]
			}
			for j := 0; j < ns; j++ {
				s := 0.0
				for k := 0; k < ns; k++ {
					s += ve[k] * g.VInv[k][j]
				}
				if s < 0 {
					s = 0
				}
				dst[base+i*ns+j] = s
			}
		}
		c.meter.Muls += ns*ns + ns*ns*ns
		c.meter.Adds += ns * ns * (ns - 1)
		c.meter.SmallLoopIters++
	}
}

// tipProjection fills dst (layout [cat][code][i]) with P·tipvec for the
// ambiguity codes the alignment contains: the RAxML tip-case specialization
// that replaces a full per-pattern matrix-vector product by a table lookup.
// Entries of codes that never occur are never read and stay unset.
func (c *Ctx) tipProjection(p []float64, dst []float64) {
	e := c.eng
	for cat := 0; cat < e.nmat; cat++ {
		pc := p[cat*ns*ns:]
		for _, code := range e.tipCodes {
			tv := &e.tipVec[code]
			for i := 0; i < ns; i++ {
				s := 0.0
				for j := 0; j < ns; j++ {
					s += pc[i*ns+j] * tv[j]
				}
				dst[cat*16*ns+code*ns+i] = s
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
