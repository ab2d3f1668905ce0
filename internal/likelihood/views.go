package likelihood

import (
	"fmt"

	"raxmlcell/internal/phylotree"
)

// memoEntry is the vector of one directed ring record that the slot of its
// node does not hold, computed by Vector: one row per pattern, valid while
// epoch is the engine's epoch.
type memoEntry struct {
	rec   *phylotree.Node
	epoch uint64
	v     vec
}

// newEpoch ends the memo's epoch: every entry goes stale at once, and the
// arena's buffers are free to be taken again. The engine calls it on every
// edit it hears of (invalidate, SetModel, InvalidateAll, AttachTree), so a
// memoized vector never outlives the tree it was computed on; SetWeights does
// not, since weights never enter a vector.
func (e *Engine) newEpoch() {
	e.epoch++
	e.arenaNext = 0
}

// memoized returns the memo entry of inner record r: its own if it is valid,
// otherwise the first of its node's three that holds no valid vector. An
// epoch fills a node's entries in order, so its valid ones come first.
func (e *Engine) memoized(r *phylotree.Node) *memoEntry {
	m := &e.memo[r.Index]
	k := 0
	for k < 2 && m[k].epoch == e.epoch && m[k].rec != r {
		k++
	}
	return &m[k]
}

// arenaVec takes the next buffer of the epoch from the memo's arena, which
// grows to the most vectors one epoch has memoized and no further. A reused
// buffer's scale counts are zeroed.
func (e *Engine) arenaVec() vec {
	if e.arenaNext == len(e.arena) {
		e.arena = append(e.arena, e.newVec())
	} else {
		clear(e.arena[e.arenaNext].sc)
	}
	e.arenaNext++
	return e.arena[e.arenaNext-1]
}

// newVec allocates a vector of one row per pattern.
func (e *Engine) newVec() vec {
	return vec{lv: make([]float64, e.npat*e.ncat*ns), sc: make([]int32, e.npat)}
}

// Vector returns the partial likelihood vector of the subtree behind record
// r (computed through r's two other ring members): the node's own slot when
// it holds that orientation (Meter.CacheHits), with one row per repeat class
// of r, or else the vector the engine memoized for r, one row per pattern,
// computed recursively on first use in the epoch. It is the engine's
// implementation of RAxML's lazy SPR evaluation: once the search has oriented
// every slot toward the prune point the memo holds only the vectors facing
// away from it, one per candidate edge, and every candidate insertion branch
// is scored in O(patterns) time from the two. The vector is read-only and
// good until the next NewView or edit. For tip records it is the zero vec:
// callers use the tip codes directly.
func (e *Engine) Vector(r *phylotree.Node) (vec, error) {
	if r.IsTip() {
		return vec{}, nil
	}
	if e.orient[r.Index] == r {
		e.Meter.CacheHits++
		return e.slotVec(r), nil
	}
	if m := e.memoized(r); m.epoch == e.epoch && m.rec == r {
		return m.v, nil
	}
	q := r.Next.Back
	w := r.Next.Next.Back
	if q == nil || w == nil {
		return vec{}, fmt.Errorf("likelihood: view of detached record")
	}
	qv, err := e.Vector(q)
	if err != nil {
		return vec{}, err
	}
	wv, err := e.Vector(w)
	if err != nil {
		return vec{}, err
	}
	dst := e.arenaVec()
	t0 := e.tick()
	e.combine(q, r.Next.Z, qv, w, r.Next.Next.Z, wv, dst, nil)
	e.tock(OpNewview, t0)
	*e.memoized(r) = memoEntry{rec: r, epoch: e.epoch, v: dst}
	return dst, nil
}

// combine is the core of newview factored over explicit child vectors:
// children may come from the engine's per-node slots, its memo, or
// (zero vecs for tips) the pattern data of the child's taxon. dst gets one
// row per entry of first, the pattern it stands for, or one per pattern when
// first is nil. The caller times it, as one OpNewview call with whatever
// else the newview needs.
func (e *Engine) combine(q *phylotree.Node, zq float64, qv vec,
	r *phylotree.Node, zr float64, rv vec, dst vec, first []int32) {

	e.prepareCombine(q, zq, qv, r, zr, rv)
	e.scr.combOp.dst, e.scr.combOp.dstScale = dst.lv, dst.sc
	if first != nil {
		e.scr.combOp.first, e.scr.combOp.rows = first, len(first)
	}
	e.tableChildren()
	e.runPass(passCombine)
	e.foldCombine()
}

// tableChildren gives each inner child of the combine in e.scr.combOp the class
// table the rule admits it, and builds them.
func (e *Engine) tableChildren() {
	op := &e.scr.combOp
	op.qTab = e.classTable(&op.q, e.scr.pLeft, op.rows)
	op.rTab = e.classTable(&op.r, e.scr.pRight, op.rows)
	e.projectTables()
}

// prepareCombine is what a newview does before its per-pattern pass: it
// counts the call, builds the two children's transition matrices and tip
// projections and files the children in e.scr.combOp, for a destination of one
// row per pattern; the destination is the caller's to set.
func (e *Engine) prepareCombine(q *phylotree.Node, zq float64, qv vec, r *phylotree.Node, zr float64, rv vec) {
	e.Meter.NewviewCalls++
	e.transitionMatrices(zq, e.scr.pLeft)
	//lint:ignore floatcmp bit-exact check: the same length gives the same matrices (the two halves of a lazy-SPR insertion branch always do)
	if zr == zq {
		copy(e.scr.pRight, e.scr.pLeft)
	} else {
		e.transitionMatrices(zr, e.scr.pRight)
	}

	qTip, rTip := q.IsTip(), r.IsTip()
	switch {
	case qTip && rTip:
		e.Meter.TipTipCalls++
	case qTip || rTip:
		e.Meter.TipInnerCalls++
	default:
		e.Meter.InnerInnerCalls++
	}
	var qData, rData []byte
	if qTip {
		e.tipProjection(e.scr.pLeft, e.scr.tipPL)
		qData = e.Pat.Data[q.Index]
	}
	if rTip {
		e.tipProjection(e.scr.pRight, e.scr.tipPR)
		rData = e.Pat.Data[r.Index]
	}
	e.scr.combOp = combineOp{qData: qData, rData: rData, q: qv, r: rv, rows: e.npat}
}

// foldCombine books what the combine parts of the finished pass counted, in
// block order: the rows computed, the patterns they cover, and the vectors
// the call streamed — the destination's rows and an inner child's row for
// each.
func (e *Engine) foldCombine() {
	total := e.scr.parts[0].comb
	for b := 1; b < e.nblk; b++ {
		total.add(e.scr.parts[b].comb)
	}
	e.Meter.Muls += total.muls
	e.Meter.Adds += total.adds
	e.Meter.BigLoopIters += uint64(e.npat)
	e.Meter.CombineRows += total.bigIters
	e.Meter.ScaleChecks += total.scaleChecks
	e.Meter.ScaleEvents += total.scaleEvents
	n := uint64(1)
	if e.scr.combOp.q.lv != nil {
		n++
	}
	if e.scr.combOp.r.lv != nil {
		n++
	}
	e.Meter.BytesStreamed += n * total.bigIters * uint64(e.ncat*ns*8)
}

// Across is the pruned subtree's side of every prescore of one prune: the
// subtree's vector carried across its own branch at the entry length,
// P(z0)·s, which is the same whichever edge the subtree is tried in.
// Engine.CarryAcross fills it once per prune; until the next edit of the tree
// it is read-only. The zero value is ready to fill and keeps its buffer.
type Across struct {
	proj []float64 // laid out like a vector, one row per pattern
	sc   []int32   // the subtree vector's scale counts per pattern; nil for a tip
	buf  []int32   // sc's storage
}

// CarryAcross fills a with the vector of the subtree behind sub.Back carried
// across a branch of length z0: what evaluate's q-side projection would
// compute for every candidate of the prune, bit for bit, once — which is why
// its loop over the patterns is a plain one and not a pass of the executor:
// one projection per prune beside three per candidate. A subtree vector the
// rule gives a class table (Engine.classTable) is projected per class and
// gathered. sub is the detached ring record of the pruned subtree, as for
// InsertionScore.
func (e *Engine) CarryAcross(a *Across, sub *phylotree.Node, z0 float64) error {
	s := sub.Back
	if s == nil {
		return fmt.Errorf("likelihood: pruned subtree has no root")
	}
	// Viewed through the subtree root record s, whose children live inside
	// the pruned subtree.
	sv, err := e.Vector(s)
	if err != nil {
		return err
	}
	if a.proj == nil {
		a.proj = make([]float64, e.npat*e.ncat*ns)
		a.buf = make([]int32, e.npat)
	}
	a.sc = nil
	e.transitionMatrices(z0, e.scr.pLeft)
	var sData []byte
	var tab []float64
	if s.IsTip() {
		sData = e.Pat.Data[s.Index]
		e.tipProjection(e.scr.pLeft, e.scr.tipPL)
	} else {
		a.sc = a.buf
		tab = e.classTable(&sv, e.scr.pLeft, e.npat)
		e.projectTables()
	}
	stride := e.ncat * ns
	for pat := 0; pat < e.npat; pat++ {
		base := pat * stride
		row := sv.row(pat) * stride
		if sData == nil {
			a.sc[pat] = sv.sc[sv.row(pat)]
		}
		if tab != nil {
			copy(a.proj[base:base+stride], tab[row:row+stride])
			continue
		}
		for cat := 0; cat < e.ncat; cat++ {
			mi := e.matIdx(pat, cat)
			o := a.proj[base+cat*ns : base+cat*ns+ns]
			if sData != nil {
				copy(o, e.scr.tipPL[int(sData[pat]&0x0f)*e.nmat*ns+mi*ns:][:ns])
				continue
			}
			pc := e.scr.pLeft[mi*ns*ns:]
			y := sv.lv[row+cat*ns:]
			for i := 0; i < ns; i++ {
				o[i] = pc[i*ns]*y[0] + pc[i*ns+1]*y[1] + pc[i*ns+2]*y[2] + pc[i*ns+3]*y[3]
			}
		}
	}
	if sData == nil {
		e.Meter.Muls += uint64(e.npat * e.ncat * ns * ns)
		e.Meter.Adds += uint64(e.npat * e.ncat * ns * (ns - 1))
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
func (e *Engine) Prescore(cand *phylotree.Node, across *Across) (logL float64, err error) {
	if cand.Back == nil {
		return 0, fmt.Errorf("likelihood: candidate edge is detached")
	}
	av, err := e.Vector(cand)
	if err != nil {
		return 0, err
	}
	bv, err := e.Vector(cand.Back)
	if err != nil {
		return 0, err
	}
	t0 := e.tick()
	half := cand.Z / 2
	e.prepareCombine(cand, half, av, cand.Back, half, bv)
	e.tableChildren()
	e.Meter.EvaluateCalls++
	e.scr.evalOp = evalOp{qProj: across.proj, q: vec{sc: across.sc}}
	e.runPass(passPrescore)
	e.foldCombine()
	logL = e.foldEval()
	e.tock(OpNewview, t0)
	return logL, nil
}

// InsertionScore evaluates the lazy-SPR score of regrafting a pruned
// subtree into the branch (cand, cand.Back): a virtual internal node is
// formed over the two branch halves, its vector combined from the cached
// views, and only the subtree's own branch length is optimized by
// Newton-Raphson (RAxML's "lazy" evaluation). sub is the detached ring
// record holding the subtree behind sub.Back; z0 is the starting branch
// length. The tree itself is not modified, nor is any slot: the engine
// memoizes the vectors it computes (Vector).
func (e *Engine) InsertionScore(cand *phylotree.Node, sub *phylotree.Node, z0 float64) (bestZ, logL float64, err error) {
	if cand.Back == nil {
		return 0, 0, fmt.Errorf("likelihood: candidate edge is detached")
	}
	s := sub.Back
	if s == nil {
		return 0, 0, fmt.Errorf("likelihood: pruned subtree has no root")
	}

	av, err := e.Vector(cand)
	if err != nil {
		return 0, 0, err
	}
	bv, err := e.Vector(cand.Back)
	if err != nil {
		return 0, 0, err
	}
	// Subtree-side vector: viewed through the subtree root record s, whose
	// children live inside the pruned subtree.
	sv, err := e.Vector(s)
	if err != nil {
		return 0, 0, err
	}
	// Virtual node x over the split candidate branch.
	if e.virtual.lv == nil {
		e.virtual = e.newVec()
	} else {
		clear(e.virtual.sc)
	}
	x := e.virtual
	half := cand.Z / 2
	t0 := e.tick()
	e.combine(cand, half, av, cand.Back, half, bv, x, nil)
	e.tock(OpNewview, t0)
	bestZ, logL = e.newtonOnBranch(x, s, sv, z0, newtonGainTol, true)
	return bestZ, logL, nil
}
