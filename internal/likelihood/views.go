package likelihood

import (
	"fmt"

	"raxmlcell/internal/phylotree"
)

// entry is the store's entry for one directed ring record of an inner node:
// the record's repeat classes, kept until a topology edit reaches the
// record, and its vector, one row per class, kept until any edit reaches it.
// The entry of a record whose classes are kept but whose vector is not
// holds no buffer; an engine that keeps no classes has no class maps.
type entry struct {
	rec  *phylotree.Node // whose entry this is; nil: none
	rows int             // rec's classes
	cls  []uint16        // pattern → row; nil when the engine keeps no classes
	buf  vec             // rec's vector (lv and sc only); lv nil: none
}

// vec is the entry's vector as the kernels read it. A record with one class
// per pattern has the identity map, classes being numbered in
// first-occurrence order, and reads as a vector of one row per pattern.
func (s *entry) vec() vec {
	v := vec{lv: s.buf.lv, sc: s.buf.sc}
	if s.rows < len(s.cls) {
		v.cls, v.rows = s.cls, s.rows
	}
	return v
}

// allocStore gives each of the three records of every inner node an entry,
// and each entry a class map when the engine keeps classes, all in one slab.
// No entry has a buffer yet: take allocates them on first need.
func (e *Engine) allocStore(ntaxa, maxIdx int, classes bool) {
	e.store = make([][3]entry, maxIdx)
	if !classes {
		return
	}
	slab := make([]uint16, 3*(maxIdx-ntaxa)*e.npat)
	for i := ntaxa; i < maxIdx; i++ {
		for k := range e.store[i] {
			e.store[i][k].cls, slab = slab[:e.npat:e.npat], slab[e.npat:]
		}
	}
}

// entryOf returns inner record r's entry, or nil when it has none.
func (e *Engine) entryOf(r *phylotree.Node) *entry {
	s := &e.store[r.Index]
	for k := range s {
		if s[k].rec == r {
			return &s[k]
		}
	}
	return nil
}

// take gives a buffer of at least rows rows: the smallest on the store's
// free list that holds them, or else the last one there, replaced by one of
// a row per pattern, or a new one of rows rows when the list is empty. So the
// store holds as many buffers as the most records it has held valid at once,
// and a buffer sized for a small record's classes is replaced at most once.
func (e *Engine) take(rows int) vec {
	k := len(e.free) - 1
	if k < 0 {
		e.bufs++
		return e.newVec(rows)
	}
	for i := range e.free {
		if n := len(e.free[i].sc); n >= rows && (len(e.free[k].sc) < rows || n < len(e.free[k].sc)) {
			k = i
		}
	}
	v := e.free[k]
	e.free[k] = e.free[len(e.free)-1]
	e.free = e.free[:len(e.free)-1]
	if len(v.sc) < rows {
		v = e.newVec(e.npat)
	}
	return v
}

// release ends the vector of entry s, if it holds one, and returns its
// buffer to the free list.
func (e *Engine) release(s *entry) {
	if s.buf.lv != nil {
		e.free = append(e.free, s.buf)
		s.buf = vec{}
	}
}

// newVec allocates a vector of rows rows.
func (e *Engine) newVec(rows int) vec {
	return vec{lv: make([]float64, rows*e.ncat*ns), sc: make([]int32, rows)}
}

// vector returns the partial likelihood vector of the subtree behind record
// r (computed through r's two other ring members), the paper's newview
// ("calls itself recursively when the two children are not tips"): the
// store's vector when r's entry holds one (Meter.CacheHits), otherwise the
// vector computed from the two children's, recursively, into a buffer of
// r's entry, one row per repeat class of r (numbered first if the topology
// behind r changed since they last were). Every reader of a vector reads
// through it, so the store holds whatever the last reads needed in either
// direction — lazy SPR reads the vectors facing the prune point and those
// facing away from it — until an edit reaches them. The vector is read-only
// and good until the next edit. For tip records it is the zero vec: callers
// use the tip codes directly.
func (e *Engine) vector(r *phylotree.Node) (vec, error) {
	if r.IsTip() {
		return vec{}, nil
	}
	s := e.entryOf(r)
	if s != nil && s.buf.lv != nil {
		e.Meter.CacheHits++
		return s.vec(), nil
	}
	q := r.Next.Back
	w := r.Next.Next.Back
	if q == nil || w == nil {
		return vec{}, fmt.Errorf("likelihood: view of detached record")
	}
	qv, err := e.vector(q)
	if err != nil {
		return vec{}, err
	}
	wv, err := e.vector(w)
	if err != nil {
		return vec{}, err
	}
	t0 := e.tick()
	var first []int32
	rows := e.npat
	switch {
	case s == nil:
		s = e.claim(r)
		if s.cls != nil {
			first, rows = e.classPass(s, q, w), s.rows
		}
	case s.cls != nil:
		first, rows = e.firstPatterns(s), s.rows
	}
	s.buf = e.take(rows)
	e.combine(q, r.Next.Z, qv, w, r.Next.Next.Z, wv, s.buf, first)
	e.tock(OpNewview, t0)
	return s.vec(), nil
}

// claim gives inner record r, which has no entry, the first entry of its
// node that neither of the ring's two other records holds, releasing what
// that entry held.
func (e *Engine) claim(r *phylotree.Node) *entry {
	ring := &e.store[r.Index]
	s := &ring[0]
	for k := 1; s.rec == r.Next || s.rec == r.Next.Next; k++ {
		s = &ring[k]
	}
	e.release(s)
	s.rec, s.rows = r, 0
	return s
}

// combine is the core of newview factored over explicit child vectors:
// children come from the store, or (zero vecs for tips) the pattern data of
// the child's taxon. dst gets one row per entry of first, the pattern it
// stands for, or one per pattern when first is nil. The caller times it, as
// one OpNewview call with whatever else the newview needs.
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
	sv, err := e.vector(s)
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
	av, err := e.vector(cand)
	if err != nil {
		return 0, err
	}
	bv, err := e.vector(cand.Back)
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
// length. The tree itself is not modified; the vectors the score reads stay
// in the store (vector).
func (e *Engine) InsertionScore(cand *phylotree.Node, sub *phylotree.Node, z0 float64) (bestZ, logL float64, err error) {
	if cand.Back == nil {
		return 0, 0, fmt.Errorf("likelihood: candidate edge is detached")
	}
	s := sub.Back
	if s == nil {
		return 0, 0, fmt.Errorf("likelihood: pruned subtree has no root")
	}

	av, err := e.vector(cand)
	if err != nil {
		return 0, 0, err
	}
	bv, err := e.vector(cand.Back)
	if err != nil {
		return 0, 0, err
	}
	// Subtree-side vector: viewed through the subtree root record s, whose
	// children live inside the pruned subtree.
	sv, err := e.vector(s)
	if err != nil {
		return 0, 0, err
	}
	// Virtual node x over the split candidate branch.
	if e.virtual.lv == nil {
		e.virtual = e.newVec(e.npat)
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
