package likelihood

import (
	"fmt"
	"time"

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
// tree (AttachTree, Invalidate): the slots are trusted. A Views is bound to
// one kernel context and inherits its (lack of) concurrency: concurrent
// scoring uses one Views per worker context (see Pool), never one Views from
// several goroutines.
type Views struct {
	ctx   *Ctx
	lv    map[*phylotree.Node][]float64
	scale map[*phylotree.Node][]int32
	order []*phylotree.Node // memoization order, so Release is deterministic

	// shared, when non-nil, replaces the private memo tables: Vector
	// delegates to the engine-wide epoch-tagged store, so every worker's
	// Views of one pool reads (and fills) the same vectors instead of each
	// recomputing them. The kernel context stays per-worker — only the
	// result vectors are shared. Built by NewSharedViews.
	shared *SharedCache
}

// NewViews creates an empty view table over the engine's current model,
// bound to the engine's primary context.
func (e *Engine) NewViews() *Views { return e.ctx0.NewViews() }

// NewViews creates an empty view table bound to this context: its vectors
// are computed with the context's scratch and pooled in the context's
// buffer pools, so tables of different contexts never share mutable state.
func (c *Ctx) NewViews() *Views {
	return &Views{
		ctx:   c,
		lv:    make(map[*phylotree.Node][]float64),
		scale: make(map[*phylotree.Node][]int32),
	}
}

// NewSharedViews creates a view table backed by the engine's shared
// epoch-tagged vector store instead of private memo tables, bound to the
// engine's primary context: vector hits and computes are attributed to
// Engine.Meter directly. Used by the pooled search for candidate sets too
// small to fan out.
func (e *Engine) NewSharedViews(s *SharedCache) *Views { return e.ctx0.NewSharedViews(s) }

// NewSharedViews creates a view table backed by the shared epoch-tagged
// vector store, bound to this context: cached vectors are engine-wide, but
// kernel scratch, metering and the scoring path's scratch buffers stay
// per-worker. Unlike a private Views, a shared-backed table survives tree
// edits (the store's epoch tags track them), needs no Release, and may be
// used from several goroutines — one per distinct bound context.
func (c *Ctx) NewSharedViews(s *SharedCache) *Views {
	return &Views{ctx: c, shared: s}
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

// Vector returns the partial likelihood vector and scale counts of the
// subtree behind record r (computed through r's two other ring members):
// the node's own slot when it holds that orientation (Meter.CacheHits), the
// memoized vector otherwise, computed recursively on first use. The slices
// are read-only and good until the next NewView or edit. For tip records it
// returns (nil, nil): callers use the tip codes directly.
func (v *Views) Vector(r *phylotree.Node) ([]float64, []int32, error) {
	if r.IsTip() {
		return nil, nil, nil
	}
	if e := v.ctx.eng; e.orient[r.Index] == r {
		v.ctx.meter.CacheHits++
		return e.lv[r.Index], e.scale[r.Index], nil
	}
	if v.shared != nil {
		return v.shared.vector(v, r)
	}
	if lv, ok := v.lv[r]; ok {
		return lv, v.scale[r], nil
	}
	q := r.Next.Back
	w := r.Next.Next.Back
	if q == nil || w == nil {
		return nil, nil, fmt.Errorf("likelihood: view of detached record")
	}
	qLv, qSc, err := v.Vector(q)
	if err != nil {
		return nil, nil, err
	}
	wLv, wSc, err := v.Vector(w)
	if err != nil {
		return nil, nil, err
	}
	dst := v.ctx.getLvBuf()
	dsc := v.ctx.getScBuf()
	v.ctx.combine(q, r.Next.Z, qLv, qSc, w, r.Next.Next.Z, wLv, wSc, dst, dsc)
	v.lv[r] = dst
	v.scale[r] = dsc
	v.order = append(v.order, r)
	return dst, dsc, nil
}

// combine is the core of newview factored over explicit child buffers:
// child vectors may come from the engine's per-node table, a Views cache,
// or (nil for tips) the pattern data of the child's taxon.
func (c *Ctx) combine(q *phylotree.Node, zq float64, qLv []float64, qSc []int32,
	r *phylotree.Node, zr float64, rLv []float64, rSc []int32,
	dst []float64, dstScale []int32) {

	e := c.eng
	var t0 time.Duration
	timed := e.kobs != nil
	if timed {
		t0 = e.know()
	}
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
	if qTip {
		c.tipProjection(c.pLeft, c.tipPL)
	}
	if rTip {
		c.tipProjection(c.pRight, c.tipPR)
	}
	var qData, rData []byte
	if qTip {
		qData = e.Pat.Data[q.Index]
	}
	if rTip {
		rData = e.Pat.Data[r.Index]
	}

	ncat := e.ncat
	c.combOp = combineOp{qData: qData, rData: rData, qLv: qLv, rLv: rLv, qSc: qSc, rSc: rSc, dst: dst, dstScale: dstScale}
	c.runPass(passCombine)
	total := c.parts[0].comb
	for b := 1; b < e.nblk; b++ {
		total.add(c.parts[b].comb)
	}
	c.meter.Muls += total.muls
	c.meter.Adds += total.adds
	c.meter.BigLoopIters += total.bigIters
	c.meter.ScaleChecks += total.scaleChecks
	c.meter.ScaleEvents += total.scaleEvents
	bytesPerVec := uint64(e.npat * ncat * ns * 8)
	n := uint64(1)
	if !qTip {
		n++
	}
	if !rTip {
		n++
	}
	c.meter.BytesStreamed += n * bytesPerVec
	if timed {
		e.kobs.ObserveKernel(OpNewview, e.know()-t0)
	}
}

// InsertionScore evaluates the lazy-SPR score of regrafting a pruned
// subtree into the branch (cand, cand.Back): a virtual internal node is
// formed over the two branch halves, its vector combined from the cached
// views, and only the subtree's own branch length is optimized by
// Newton-Raphson (RAxML's "lazy" evaluation). sub is the detached ring
// record holding the subtree behind sub.Back; z0 is the starting branch
// length. The tree itself is not modified, and neither is any engine-level
// table — concurrent calls are safe when every goroutine scores through
// its own context's Views.
func (v *Views) InsertionScore(cand *phylotree.Node, sub *phylotree.Node, z0 float64) (bestZ, logL float64, err error) {
	if cand.Back == nil {
		return 0, 0, fmt.Errorf("likelihood: candidate edge is detached")
	}
	s := sub.Back
	if s == nil {
		return 0, 0, fmt.Errorf("likelihood: pruned subtree has no root")
	}
	c := v.ctx

	aLv, aSc, err := v.Vector(cand)
	if err != nil {
		return 0, 0, err
	}
	bLv, bSc, err := v.Vector(cand.Back)
	if err != nil {
		return 0, 0, err
	}
	// Subtree-side vector: viewed through the subtree root record s, whose
	// children live inside the pruned subtree.
	sLv, sSc, err := v.Vector(s)
	if err != nil {
		return 0, 0, err
	}
	// Virtual node x over the split candidate branch.
	xLv := c.getLvBuf()
	xSc := c.getScBuf()
	half := cand.Z / 2
	c.combine(cand, half, aLv, aSc, cand.Back, half, bLv, bSc, xLv, xSc)
	bestZ, logL = c.newtonOnBranch(xLv, xSc, s, sLv, sSc, z0)
	c.lvPool = append(c.lvPool, xLv)
	c.scPool = append(c.scPool, xSc)
	return bestZ, logL, nil
}

// newtonOnBranch optimizes the branch length between an explicit vector
// (pLv/pSc) and a node side given by (q, qLv, qSc) — q may be a tip (qLv
// nil). It is the sum-table core of MakeNewz reused by the lazy SPR path,
// running entirely on context-owned scratch.
func (c *Ctx) newtonOnBranch(pLv []float64, pSc []int32, q *phylotree.Node, qLv []float64, qSc []int32, z0 float64) (float64, float64) {
	e := c.eng
	c.meter.MakenewzCalls++
	var qData []byte
	if q.IsTip() {
		qData = e.Pat.Data[q.Index]
	}
	scaleConst := c.buildSumTable(pLv, pSc, qData, qLv, qSc)
	return c.newtonSolve(z0, scaleConst)
}
