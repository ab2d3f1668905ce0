package likelihood

import (
	"fmt"

	"raxmlcell/internal/phylotree"
)

// Views is the table of directed partial likelihood vectors the engine's one
// slot per node cannot hold, over a topologically frozen tree. Vector reads
// the node's own slot whenever it holds the requested orientation and
// computes and memoizes the vector otherwise. It is the engine's
// implementation of RAxML's lazy SPR evaluation: once the search has oriented
// every slot toward the prune point the table holds only the vectors facing
// away from it, one per candidate edge, and every candidate insertion branch
// is scored in O(patterns) time from the two.
//
// A Views must be released as soon as the tree's topology or any branch
// length changes, and the engine must have been told of every edit of the
// tree (AttachTree, Invalidate): the slots are trusted. A Views computes with
// the engine's kernel context and pools its buffers there, so it is used from
// the goroutine that uses its engine.
type Views struct {
	ctx   *Ctx
	lv    map[*phylotree.Node][]float64
	scale map[*phylotree.Node][]int32
	order []*phylotree.Node // memoization order, so Release is deterministic
}

// NewViews creates an empty view table over the engine's current model.
func (e *Engine) NewViews() *Views {
	return &Views{
		ctx:   e.ctx0,
		lv:    make(map[*phylotree.Node][]float64),
		scale: make(map[*phylotree.Node][]int32),
	}
}

// Release returns all cached buffers to the owning context's pool.
func (v *Views) Release() {
	// Iterate in memoization order, not map order: the pools are stacks, so
	// return order decides which buffer each future view reuses, and replay
	// must hand out identical buffers.
	for _, r := range v.order {
		if buf, ok := v.lv[r]; ok {
			v.ctx.lvPool = append(v.ctx.lvPool, buf)
			delete(v.lv, r)
		}
		if sc, ok := v.scale[r]; ok {
			v.ctx.scPool = append(v.ctx.scPool, sc)
			delete(v.scale, r)
		}
	}
	v.order = v.order[:0]
}

func (c *Ctx) getLvBuf() []float64 {
	if n := len(c.lvPool); n > 0 {
		b := c.lvPool[n-1]
		c.lvPool = c.lvPool[:n-1]
		return b
	}
	e := c.eng
	return make([]float64, e.npat*e.ncat*ns)
}

func (c *Ctx) getScBuf() []int32 {
	if n := len(c.scPool); n > 0 {
		b := c.scPool[n-1]
		c.scPool = c.scPool[:n-1]
		for i := range b {
			b[i] = 0
		}
		return b
	}
	return make([]int32, c.eng.npat)
}

// Vector returns the partial likelihood vector of the subtree behind record
// r (computed through r's two other ring members): the node's own slot when
// it holds that orientation (Meter.CacheHits), with one row per repeat class
// of r, or the memoized vector, one row per pattern, computed recursively on
// first use. The vector is read-only and good until the next NewView or
// edit. For tip records it is the zero vec: callers use the tip codes
// directly.
func (v *Views) Vector(r *phylotree.Node) (vec, error) {
	if r.IsTip() {
		return vec{}, nil
	}
	if e := v.ctx.eng; e.orient[r.Index] == r {
		v.ctx.meter.CacheHits++
		return e.slotVec(r), nil
	}
	if lv, ok := v.lv[r]; ok {
		return vec{lv: lv, sc: v.scale[r]}, nil
	}
	q := r.Next.Back
	w := r.Next.Next.Back
	if q == nil || w == nil {
		return vec{}, fmt.Errorf("likelihood: view of detached record")
	}
	qv, err := v.Vector(q)
	if err != nil {
		return vec{}, err
	}
	wv, err := v.Vector(w)
	if err != nil {
		return vec{}, err
	}
	dst := vec{lv: v.ctx.getLvBuf(), sc: v.ctx.getScBuf()}
	t0 := v.ctx.eng.tick()
	v.ctx.combine(q, r.Next.Z, qv, w, r.Next.Next.Z, wv, dst, nil)
	v.ctx.eng.tock(OpNewview, t0)
	v.lv[r] = dst.lv
	v.scale[r] = dst.sc
	v.order = append(v.order, r)
	return dst, nil
}

// combine is the core of newview factored over explicit child vectors:
// children may come from the engine's per-node table, a Views cache, or
// (zero vecs for tips) the pattern data of the child's taxon. dst gets one
// row per entry of first, the pattern it stands for, or one per pattern when
// first is nil. The caller times it, as one OpNewview call with whatever
// else the newview needs.
func (c *Ctx) combine(q *phylotree.Node, zq float64, qv vec,
	r *phylotree.Node, zr float64, rv vec, dst vec, first []int32) {

	c.prepareCombine(q, zq, qv, r, zr, rv)
	c.combOp.dst, c.combOp.dstScale = dst.lv, dst.sc
	if first != nil {
		c.combOp.first, c.combOp.rows = first, len(first)
	}
	c.runPass(passCombine)
	c.foldCombine()
}

// prepareCombine is what a newview does before its per-pattern pass: it
// counts the call, builds the two children's transition matrices and tip
// projections and files the children in c.combOp, for a destination of one
// row per pattern; the destination is the caller's to set.
func (c *Ctx) prepareCombine(q *phylotree.Node, zq float64, qv vec, r *phylotree.Node, zr float64, rv vec) {
	e := c.eng
	c.meter.NewviewCalls++
	c.transitionMatrices(zq, c.pLeft)
	//lint:ignore floatcmp bit-exact check: the same length gives the same matrices (the two halves of a lazy-SPR insertion branch always do)
	if zr == zq {
		copy(c.pRight, c.pLeft)
	} else {
		c.transitionMatrices(zr, c.pRight)
	}

	qTip, rTip := q.IsTip(), r.IsTip()
	switch {
	case qTip && rTip:
		c.meter.TipTipCalls++
	case qTip || rTip:
		c.meter.TipInnerCalls++
	default:
		c.meter.InnerInnerCalls++
	}
	var qData, rData []byte
	if qTip {
		c.tipProjection(c.pLeft, c.tipPL)
		qData = e.Pat.Data[q.Index]
	}
	if rTip {
		c.tipProjection(c.pRight, c.tipPR)
		rData = e.Pat.Data[r.Index]
	}
	c.combOp = combineOp{qData: qData, rData: rData, q: qv, r: rv, rows: e.npat}
}

// foldCombine books what the combine parts of the finished pass counted, in
// block order: the rows computed, the patterns they cover, and the vectors
// the call streamed — the destination's rows and an inner child's row for
// each.
func (c *Ctx) foldCombine() {
	e := c.eng
	total := c.parts[0].comb
	for b := 1; b < e.nblk; b++ {
		total.add(c.parts[b].comb)
	}
	c.meter.Muls += total.muls
	c.meter.Adds += total.adds
	c.meter.BigLoopIters += uint64(e.npat)
	c.meter.CombineRows += total.bigIters
	c.meter.ScaleChecks += total.scaleChecks
	c.meter.ScaleEvents += total.scaleEvents
	n := uint64(1)
	if c.combOp.q.lv != nil {
		n++
	}
	if c.combOp.r.lv != nil {
		n++
	}
	c.meter.BytesStreamed += n * total.bigIters * uint64(e.ncat*ns*8)
}

// Across is the pruned subtree's side of every prescore of one prune: the
// subtree's vector carried across its own branch at the entry length,
// P(z0)·s, which is the same whichever edge the subtree is tried in.
// Views.CarryAcross fills it once per prune; until the next edit of the tree
// it is read-only. The zero value is ready to fill and keeps its buffer.
type Across struct {
	proj []float64 // laid out like a vector, one row per pattern
	sc   []int32   // the subtree vector's scale counts per pattern; nil for a tip
	buf  []int32   // sc's storage
}

// CarryAcross fills a with the vector of the subtree behind sub.Back carried
// across a branch of length z0: what evaluate's q-side projection would
// compute for every candidate of the prune, bit for bit, once — which is why
// it is a plain loop and not a pass of the executor: one projection per prune
// beside three per candidate. sub is the detached ring record of the pruned
// subtree, as for InsertionScore.
func (v *Views) CarryAcross(a *Across, sub *phylotree.Node, z0 float64) error {
	s := sub.Back
	if s == nil {
		return fmt.Errorf("likelihood: pruned subtree has no root")
	}
	// Viewed through the subtree root record s, whose children live inside
	// the pruned subtree.
	sv, err := v.Vector(s)
	if err != nil {
		return err
	}
	c := v.ctx
	e := c.eng
	if a.proj == nil {
		a.proj = make([]float64, e.npat*e.ncat*ns)
		a.buf = make([]int32, e.npat)
	}
	a.sc = nil
	c.transitionMatrices(z0, c.pLeft)
	var sData []byte
	if s.IsTip() {
		sData = e.Pat.Data[s.Index]
		c.tipProjection(c.pLeft, c.tipPL)
	} else {
		a.sc = a.buf
	}
	for pat := 0; pat < e.npat; pat++ {
		base := pat * e.ncat * ns
		row := sv.row(pat) * e.ncat * ns
		if sData == nil {
			a.sc[pat] = sv.sc[sv.row(pat)]
		}
		for cat := 0; cat < e.ncat; cat++ {
			mi := e.matIdx(pat, cat)
			o := a.proj[base+cat*ns : base+cat*ns+ns]
			if sData != nil {
				copy(o, c.tipPL[mi*16*ns+int(sData[pat]&0x0f)*ns:][:ns])
				continue
			}
			pc := c.pLeft[mi*ns*ns:]
			y := sv.lv[row+cat*ns:]
			for i := 0; i < ns; i++ {
				o[i] = pc[i*ns]*y[0] + pc[i*ns+1]*y[1] + pc[i*ns+2]*y[2] + pc[i*ns+3]*y[3]
			}
		}
	}
	if sData == nil {
		c.meter.Muls += uint64(e.npat * e.ncat * ns * ns)
		c.meter.Adds += uint64(e.npat * e.ncat * ns * (ns - 1))
	}
	return nil
}

// Prescore is stage one of lazy SPR, RAxML's fast insertion: the
// log-likelihood of regrafting the pruned subtree into the branch (cand,
// cand.Back) with nothing optimised — the virtual insertion node over the
// two branch halves, and an evaluate across the subtree's branch at its
// entry length, whose far side is across. It is one per-pattern pass: each
// block combines the node into a block-sized scratch and evaluates on it, so
// the node's vector is never stored whole, and no sum table, exponential
// block or derivative pass is built. The bits are those of the combine
// followed by an evaluate of the regrafted tree. It counts as the newview
// and the evaluate it computes and is timed as one OpNewview call. The tree
// is as for InsertionScore, which solves the candidates this ranks highest.
func (v *Views) Prescore(cand *phylotree.Node, across *Across) (logL float64, err error) {
	if cand.Back == nil {
		return 0, fmt.Errorf("likelihood: candidate edge is detached")
	}
	av, err := v.Vector(cand)
	if err != nil {
		return 0, err
	}
	bv, err := v.Vector(cand.Back)
	if err != nil {
		return 0, err
	}
	c := v.ctx
	t0 := c.eng.tick()
	half := cand.Z / 2
	c.prepareCombine(cand, half, av, cand.Back, half, bv)
	c.meter.EvaluateCalls++
	c.evalOp = evalOp{qProj: across.proj, q: vec{sc: across.sc}}
	c.runPass(passPrescore)
	c.foldCombine()
	logL = c.foldEval()
	c.eng.tock(OpNewview, t0)
	return logL, nil
}

// InsertionScore evaluates the lazy-SPR score of regrafting a pruned
// subtree into the branch (cand, cand.Back): a virtual internal node is
// formed over the two branch halves, its vector combined from the cached
// views, and only the subtree's own branch length is optimized by
// Newton-Raphson (RAxML's "lazy" evaluation). sub is the detached ring
// record holding the subtree behind sub.Back; z0 is the starting branch
// length. The tree itself is not modified, and neither is any engine-level
// table.
func (v *Views) InsertionScore(cand *phylotree.Node, sub *phylotree.Node, z0 float64) (bestZ, logL float64, err error) {
	if cand.Back == nil {
		return 0, 0, fmt.Errorf("likelihood: candidate edge is detached")
	}
	s := sub.Back
	if s == nil {
		return 0, 0, fmt.Errorf("likelihood: pruned subtree has no root")
	}
	c := v.ctx

	av, err := v.Vector(cand)
	if err != nil {
		return 0, 0, err
	}
	bv, err := v.Vector(cand.Back)
	if err != nil {
		return 0, 0, err
	}
	// Subtree-side vector: viewed through the subtree root record s, whose
	// children live inside the pruned subtree.
	sv, err := v.Vector(s)
	if err != nil {
		return 0, 0, err
	}
	// Virtual node x over the split candidate branch.
	x := vec{lv: c.getLvBuf(), sc: c.getScBuf()}
	half := cand.Z / 2
	t0 := c.eng.tick()
	c.combine(cand, half, av, cand.Back, half, bv, x, nil)
	c.eng.tock(OpNewview, t0)
	bestZ, logL = c.newtonOnBranch(x, s, sv, z0, newtonGainTol, true)
	c.lvPool = append(c.lvPool, x.lv)
	c.scPool = append(c.scPool, x.sc)
	return bestZ, logL, nil
}
