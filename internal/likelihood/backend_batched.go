package likelihood

import (
	"fmt"
	"math"
)

// batchTile is the pattern-tile width of the batched backend: 32 patterns
// × 4 Gamma categories × 4 states × 8 bytes = 4 KiB per projection tile —
// comfortably inside L1 alongside the source vectors, the same "operate on
// a resident block" discipline the paper used to fit kernel working sets
// into the 256 KiB SPE local store.
const batchTile = 32

// tileScratch is one goroutine's private tile storage: every engine
// owns one for the blocks its owner runs, every executor helper one for the
// blocks it adopts, so concurrent blocks of one pass never share a tile.
type tileScratch struct {
	// a is the projection tile, laid out like lv: [t*ncat*ns + cat*ns + i];
	// a Newton derivative pass keeps its tile's three sums in it instead.
	a []float64

	// The rows (or tip codes) a tile gathers from its operands, one per
	// tile position: qi/ri the two projected sides, pi evaluate's p-side
	// (gatherTile).
	qi, ri, pi []int32

	// A prescore block's virtual insertion node, laid out like lv from the
	// block's first pattern, and the ops that point the two kernels at it
	// (here, not on the stack: their address crosses the Backend interface).
	x    []float64
	xsc  []int32
	comb combineOp
	eval evalOp
}

// fitX sizes x for a block of n patterns of ncat stored categories.
func (ts *tileScratch) fitX(n, ncat int) {
	if len(ts.x) < n*ncat*ns {
		ts.x = make([]float64, n*ncat*ns)
	}
	if len(ts.xsc) < n {
		ts.xsc = make([]int32, n)
	}
}

// fit sizes the tile for engines of ncat stored categories; it allocates
// only when it meets a wider engine than any before.
func (ts *tileScratch) fit(ncat int) {
	if n := batchTile * ncat * ns; len(ts.a) < n {
		ts.a = make([]float64, n)
	}
	if ts.qi == nil {
		ts.qi, ts.ri, ts.pi = make([]int32, batchTile), make([]int32, batchTile), make([]int32, batchTile)
	}
}

// batchedBackend restructures the kernels pattern-major over cache-blocked
// tiles with the transition-matrix × partial-vector loops fused: each
// matrix (or exponential) row is hoisted into locals once per category and
// reused across the whole tile, instead of being reloaded for every
// pattern as the scalar loops do. On a CPU with AVX the projections, the
// sum table's factors and the Newton derivative sums run vector bodies
// (simdKernels) — the paper's SPU vectorization of the two FP-intensive
// loops (Section 5.2.5, the 36→24 and 44→22 instruction-count reductions),
// for real on the host: P's four columns in four registers, four states or
// four patterns a lane each. The FLOP count is unchanged; the instructions
// that carry it, the per-pattern load traffic and loop overhead are what
// drop.
//
// Every accumulation keeps the scalar backend's per-element order
// (category-major, state-ascending, sequential adds), so results are
// bit-identical to scalar — the cross-backend tests assert exact equality
// on partial vectors and log-likelihoods.
//
// The CAT layout delegates to the scalar loops: a per-pattern matrix index
// defeats the shared-matrix hoisting the tile transform is built on, so
// there is nothing to fuse across a tile.
type batchedBackend struct {
	scalar scalarBackend
}

// gatherTile returns what a tile of rows [lo, hi) reads from one operand:
// row i stands for pattern first[i] (nil: i), where a tip operand (data)
// has its code and an inner one (v) the row of its class map. It fills idx,
// or, for an operand read one row per pattern, returns the engine's
// identity rows without a loop. It panics on a row past the operand's rows,
// which the vector bodies would read unchecked: a bug, never an input.
func gatherTile(e *Engine, idx, first []int32, data []byte, v *vec, lo, hi, rows int) []int32 {
	if first == nil && data == nil && v.cls == nil {
		if hi > rows {
			rowPastOperand(hi-1, rows)
		}
		return e.ident[lo:hi]
	}
	for row := lo; row < hi; row++ {
		pat := row
		if first != nil {
			pat = int(first[row])
		}
		var r int
		switch {
		case data != nil:
			r = int(data[pat] & 0x0f)
		case v.cls != nil:
			r = int(v.cls[pat])
		default:
			r = pat
		}
		if uint(r) >= uint(rows) {
			rowPastOperand(r, rows)
		}
		idx[row-lo] = int32(r)
	}
	return idx[:hi-lo]
}

func rowPastOperand(r, rows int) {
	panic(fmt.Sprintf("likelihood: tile row %d of an operand of %d rows", r, rows))
}

// operandRows is the rows a tile may gather from an operand read from tab,
// or, where tab is nil, projected from lv.
func operandRows(tab, lv []float64, stride int) int {
	if tab != nil {
		return len(tab) / stride
	}
	return len(lv) / stride
}

// simdKernels are vector bodies of the tile loops below, installed where the
// CPU has them (avx_amd64.go). Each has its Go loop's bits: a lane rounds
// every product and every sum on its own, in that loop's order, with no
// fused multiply-add. They check no bound, so their callers hand them rows
// gatherTile has checked and slices cut to the lengths they access.
type simdKernels struct {
	// project is projectInnerTile, projectTimes projectTimes.
	project      func(p, src []float64, idx []int32, out []float64, ncat int)
	projectTimes func(p, src []float64, idx []int32, a []float64, aIdx []int32, out []float64, ncat int)

	// sumP and mat4 are sumTableFactors' two loops over len(f)/4 rows of
	// four: f = Σ_i (π_i·x_i)·V[i] on the p side, f = W·y on an inner q side.
	sumP func(fr *[ns]float64, v *[ns][ns]float64, x, f []float64)
	mat4 func(m *[ns][ns]float64, y, f []float64)

	// newtonDeriv leaves in l0, l1 and l2 newtonDerivRange's three sums of
	// len(l0) patterns, a multiple of four, whose rows of len(e0) tab holds.
	newtonDeriv func(tab, e0, e1, e2, l0, l1, l2 []float64)
}

// simd holds the CPU's vector kernels, nil where it has none.
var simd *simdKernels

// projectTile is projectInnerTile on the vector body where there is one.
func projectTile(p, src []float64, idx []int32, out []float64, ncat int) {
	if simd == nil {
		projectInnerTile(p, src, idx, out, ncat)
		return
	}
	simd.project(p[:ncat*ns*ns], src, idx, out[:len(idx)*ncat*ns], ncat)
}

// projectTimesTile is projectTimes on the vector body where there is one.
func projectTimesTile(p, src []float64, idx []int32, a []float64, aIdx []int32, out []float64, ncat int) {
	if simd == nil {
		projectTimes(p, src, idx, a, aIdx, out, ncat)
		return
	}
	simd.projectTimes(p[:ncat*ns*ns], src, idx, a, aIdx[:len(idx)], out[:len(idx)*ncat*ns], ncat)
}

// projectInnerTile projects the rows idx of an inner child's partial vectors
// through the per-category transition matrices into a tile, keeping all 16
// matrix entries in locals across the tile — the fused loop the scalar path
// re-derives per pattern.
func projectInnerTile(p, src []float64, idx []int32, out []float64, ncat int) {
	stride := ncat * ns
	for cat := 0; cat < ncat; cat++ {
		pc := p[cat*ns*ns : cat*ns*ns+ns*ns]
		p00, p01, p02, p03 := pc[0], pc[1], pc[2], pc[3]
		p10, p11, p12, p13 := pc[4], pc[5], pc[6], pc[7]
		p20, p21, p22, p23 := pc[8], pc[9], pc[10], pc[11]
		p30, p31, p32, p33 := pc[12], pc[13], pc[14], pc[15]
		co := cat * ns
		for j, r := range idx {
			sb := int(r)*stride + co
			x := src[sb : sb+ns]
			o := out[j*stride+co : j*stride+co+ns]
			x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
			o[0] = p00*x0 + p01*x1 + p02*x2 + p03*x3
			o[1] = p10*x0 + p11*x1 + p12*x2 + p13*x3
			o[2] = p20*x0 + p21*x1 + p22*x2 + p23*x3
			o[3] = p30*x0 + p31*x1 + p32*x2 + p33*x3
		}
	}
}

// projectTimes writes into out, for every tile position j, the row aIdx[j]
// of a times the projection of src's row idx[j] through the per-category
// transition matrices p, with p's 16 entries in locals across the tile: a
// combine's second child projected straight into the product, which a
// second tile and a second pass over the rows would cost otherwise. a is
// the first child's tile, or its tip table read in place.
func projectTimes(p, src []float64, idx []int32, a []float64, aIdx []int32, out []float64, ncat int) {
	stride := ncat * ns
	for cat := 0; cat < ncat; cat++ {
		pc := p[cat*ns*ns : cat*ns*ns+ns*ns]
		p00, p01, p02, p03 := pc[0], pc[1], pc[2], pc[3]
		p10, p11, p12, p13 := pc[4], pc[5], pc[6], pc[7]
		p20, p21, p22, p23 := pc[8], pc[9], pc[10], pc[11]
		p30, p31, p32, p33 := pc[12], pc[13], pc[14], pc[15]
		co := cat * ns
		for j, r := range idx {
			sb := int(r)*stride + co
			x := src[sb : sb+ns]
			ab := int(aIdx[j])*stride + co
			t := a[ab : ab+ns]
			o := out[j*stride+co : j*stride+co+ns]
			x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
			o[0] = t[0] * (p00*x0 + p01*x1 + p02*x2 + p03*x3)
			o[1] = t[1] * (p10*x0 + p11*x1 + p12*x2 + p13*x3)
			o[2] = t[2] * (p20*x0 + p21*x1 + p22*x2 + p23*x3)
			o[3] = t[3] * (p30*x0 + p31*x1 + p32*x2 + p33*x3)
		}
	}
}

// projectRows projects rows [lo, hi) of an inner child's partial vectors
// into the same rows of dst a tile at a time: a class table's rows
// (Engine.classTable), each projectInnerTile's expression on its row.
func projectRows(e *Engine, p, src, dst []float64, lo, hi int) {
	if hi > len(src)/(e.ncat*ns) {
		rowPastOperand(hi-1, len(src)/(e.ncat*ns))
	}
	for l := lo; l < hi; l += batchTile {
		projectTile(p, src, e.ident[l:min(l+batchTile, hi)], dst[l*e.ncat*ns:], e.ncat)
	}
}

// combineRows keeps the scalar loop's bits with the children in either
// order: an IEEE product commutes, and scale counts add as integers. So a
// child read from a table — a tip's, or an inner child's class table — has
// its row read in place as the product's first factor and its inner sibling
// projected straight into the product; two inner children project the
// first into a tile; two tables multiply their rows.
func (b batchedBackend) combineRows(e *Engine, op *combineOp, pr patRange, ts *tileScratch) combineStats {
	if e.patCat != nil {
		return b.scalar.combineRows(e, op, pr, ts)
	}
	ncat := e.ncat
	stride := ncat * ns
	dst, dstScale, dstLo := op.dst, op.dstScale, op.dstLo
	qt, rt := op.qTab, op.rTab
	inner := uint64(0) // the children projected through their matrix, as the meter counts them
	if op.qData == nil {
		inner++
	} else {
		qt = e.scr.tipPL
	}
	if op.rData == nil {
		inner++
	} else {
		rt = e.scr.tipPR
	}

	qRows, rRows := operandRows(qt, op.q.lv, stride), operandRows(rt, op.r.lv, stride)

	var st combineStats
	for lo := pr.lo; lo < pr.hi; lo += batchTile {
		hi := min(lo+batchTile, pr.hi)
		n := hi - lo
		qi := gatherTile(e, ts.qi, op.first, op.qData, &op.q, lo, hi, qRows)
		ri := gatherTile(e, ts.ri, op.first, op.rData, &op.r, lo, hi, rRows)
		out := dst[(lo-dstLo)*stride : (hi-dstLo)*stride]
		switch {
		case qt != nil && rt != nil:
			for j := range n {
				tq := qt[int(qi[j])*stride : int(qi[j])*stride+stride]
				tr := rt[int(ri[j])*stride : int(ri[j])*stride+stride]
				d := out[j*stride : j*stride+stride]
				for k := range d {
					d[k] = tq[k] * tr[k]
				}
			}
		case qt != nil:
			projectTimesTile(e.scr.pRight, op.r.lv, ri, qt, qi, out, ncat)
		case rt != nil:
			projectTimesTile(e.scr.pLeft, op.q.lv, qi, rt, ri, out, ncat)
		default:
			projectTile(e.scr.pLeft, op.q.lv, qi, ts.a, ncat)
			projectTimesTile(e.scr.pRight, op.r.lv, ri, ts.a, e.ident[:n], out, ncat)
		}
		st.muls += uint64(n) * (inner*uint64(ncat)*ns*ns + uint64(stride))
		st.adds += uint64(n) * inner * uint64(ncat) * ns * (ns - 1)

		for j := 0; j < n; j++ {
			d := out[j*stride : j*stride+stride]
			sc := int32(0)
			if op.q.sc != nil {
				sc += op.q.sc[qi[j]]
			}
			if op.r.sc != nil {
				sc += op.r.sc[ri[j]]
			}
			st.scaleChecks++
			if e.needsScaling(d) {
				for k := range d {
					d[k] *= TwoTo256
				}
				st.muls += uint64(stride)
				sc++
				st.scaleEvents++
			}
			dstScale[lo+j-dstLo] = sc
		}
		st.bigIters += uint64(n)
	}
	return st
}

// evaluateRange runs a tile's patterns one at a time, its site sum in a
// local, adding in the scalar site loop's order (category-major,
// state-ascending, sequential adds), so the pass is bit-identical, not just
// close. The q-side of tile position j is row ai[j] of a: the carried
// vector, a tip's or a class table, or the tile the inner q-side was
// projected into.
func (b batchedBackend) evaluateRange(e *Engine, op *evalOp, pr patRange, ts *tileScratch) evalPart {
	if e.patCat != nil {
		return b.scalar.evaluateRange(e, op, pr, ts)
	}
	ncat := e.ncat
	stride := ncat * ns
	freqs := &e.Mod.GTR.Freqs
	f0, f1, f2, f3 := freqs[0], freqs[1], freqs[2], freqs[3]
	p, pLo := &op.p, op.pLo
	qa := op.qTab // what the q-side is read from; nil: projected a tile at a time
	switch {
	case op.qProj != nil:
		qa = op.qProj
	case op.qData != nil:
		qa = e.scr.tipPR
	}
	pRows, qRows := len(p.lv)/stride, operandRows(qa, op.q.lv, stride)

	var out evalPart
	for lo := pr.lo; lo < pr.hi; lo += batchTile {
		hi := min(lo+batchTile, pr.hi)
		n := hi - lo
		pi := e.ident[lo-pLo : hi-pLo]
		if p.cls != nil {
			pi = gatherTile(e, ts.pi, nil, nil, p, lo, hi, pRows)
		}
		qi := gatherTile(e, ts.qi, nil, op.qData, &op.q, lo, hi, qRows)
		a, ai := qa, qi
		if a == nil {
			projectTile(e.scr.pLeft, op.q.lv, qi, ts.a, ncat)
			a, ai = ts.a, e.ident[:n]
		}
		if op.qProj == nil && op.qData == nil {
			out.st.muls += uint64(n) * uint64(ncat) * ns * ns
			out.st.adds += uint64(n) * uint64(ncat) * ns * (ns - 1)
		}
		out.st.muls += uint64(n) * uint64(ncat) * 2 * ns
		out.st.adds += uint64(n) * uint64(ncat) * ns

		for j, r := range pi {
			x := p.lv[int(r)*stride : int(r)*stride+stride]
			y := a[int(ai[j])*stride : int(ai[j])*stride+stride]
			site := 0.0
			for co := 0; co+ns <= stride; co += ns {
				xc, yc := x[co:co+ns:co+ns], y[co:co+ns:co+ns]
				site += f0 * xc[0] * yc[0]
				site += f1 * xc[1] * yc[1]
				site += f2 * xc[2] * yc[2]
				site += f3 * xc[3] * yc[3]
			}
			pat := lo + j
			site *= e.invCats
			out.st.muls++
			sc := p.sc[r]
			if op.q.sc != nil {
				sc += op.q.sc[qi[j]]
			}
			if site <= 0 || math.IsNaN(site) {
				out.underflow++
				site = math.SmallestNonzeroFloat64
			}
			siteLog := math.Log(site) + float64(sc)*logMinLik
			if op.perSite != nil {
				op.perSite[pat] = siteLog
			}
			out.sum += float64(e.Pat.Weights[pat]) * siteLog
			out.st.bigIters++
			out.st.muls += 2
			out.st.adds += 2
		}
	}
	return out
}

func (b batchedBackend) sumTableFactors(e *Engine, op *sumOp, pr, qr patRange, ts *tileScratch) sumPart {
	if e.patCat != nil {
		return b.scalar.sumTableFactors(e, op, pr, qr, ts)
	}
	g := e.Mod.GTR
	stride := e.ncat * ns
	sumP, mat4 := sumPRows, mat4Rows
	if simd != nil {
		sumP, mat4 = simd.sumP, simd.mat4
	}
	sumP(&g.Freqs, &g.V, op.p.lv[pr.lo*stride:pr.hi*stride], e.scr.sumP[pr.lo*stride:pr.hi*stride])
	if op.qData == nil {
		mat4(&g.VInv, op.q.lv[qr.lo*stride:qr.hi*stride], e.scr.sumQ[qr.lo*stride:qr.hi*stride])
	} else {
		for o := qr.lo * stride; o < qr.hi*stride; o += ns {
			mat4Rows(&g.VInv, e.tipVec[o/stride][:], e.scr.sumQ[o:o+ns])
		}
	}
	return sumTableStats(e, pr, qr)
}

// sumPRows writes, for every row of four of x, f = Σ_i (π_i·x_i)·v[i]: fx[i]
// = π_i·x_i once per row; the flat 4-term forms group left-associatively
// exactly like the scalar += chains.
func sumPRows(fr *[ns]float64, v *[ns][ns]float64, x, f []float64) {
	for o := 0; o+ns <= len(f); o += ns {
		x, f := x[o:o+ns], f[o:o+ns]
		fx0, fx1, fx2, fx3 := fr[0]*x[0], fr[1]*x[1], fr[2]*x[2], fr[3]*x[3]
		f[0] = fx0*v[0][0] + fx1*v[1][0] + fx2*v[2][0] + fx3*v[3][0]
		f[1] = fx0*v[0][1] + fx1*v[1][1] + fx2*v[2][1] + fx3*v[3][1]
		f[2] = fx0*v[0][2] + fx1*v[1][2] + fx2*v[2][2] + fx3*v[3][2]
		f[3] = fx0*v[0][3] + fx1*v[1][3] + fx2*v[2][3] + fx3*v[3][3]
	}
}

// mat4Rows writes f = w·y for every row of four of y.
func mat4Rows(w *[ns][ns]float64, y, f []float64) {
	for o := 0; o+ns <= len(f); o += ns {
		y, f := y[o:o+ns], f[o:o+ns]
		y0, y1, y2, y3 := y[0], y[1], y[2], y[3]
		f[0] = w[0][0]*y0 + w[0][1]*y1 + w[0][2]*y2 + w[0][3]*y3
		f[1] = w[1][0]*y0 + w[1][1]*y1 + w[1][2]*y2 + w[1][3]*y3
		f[2] = w[2][0]*y0 + w[2][1]*y1 + w[2][2]*y2 + w[2][3]*y3
		f[3] = w[3][0]*y0 + w[3][1]*y1 + w[3][2]*y2 + w[3][3]*y3
	}
}

// newtonDerivRange takes a tile of patterns at a time: their sums L, L′
// and L″ into the tile scratch, the vector body four patterns at a time
// and the loop the rest, then the epilogue pattern by pattern in order.
func (b batchedBackend) newtonDerivRange(e *Engine, op *newtonOp, pr patRange, ts *tileScratch) derivPart {
	if e.patCat != nil {
		return b.scalar.newtonDerivRange(e, op, pr, ts)
	}
	stride := e.ncat * ns
	e0, e1, e2 := op.e0[:stride], op.e1[:stride], op.e2[:stride]
	l0, l1, l2 := ts.a[:batchTile], ts.a[batchTile:2*batchTile], ts.a[2*batchTile:3*batchTile]

	var out derivPart
	for lo := pr.lo; lo < pr.hi; lo += batchTile {
		n := min(batchTile, pr.hi-lo)
		tab := e.scr.sumTab[lo*stride : (lo+n)*stride]
		v := 0
		if simd != nil {
			v = n &^ 3
			simd.newtonDeriv(tab[:v*stride], e0, e1, e2, l0[:v], l1[:v], l2[:v])
		}
		newtonDerivSums(tab[v*stride:], e0, e1, e2, l0[v:n], l1[v:n], l2[v:n])
		for j := range n {
			L := l0[j] * e.invCats
			L1 := l1[j] * e.invCats
			L2 := l2[j] * e.invCats
			if L < minPositive {
				out.underflow++
				L = minPositive
			}
			w := float64(op.weights[lo+j])
			out.d1 += w * (L1 / L)
			out.d2 += w * (L2/L - (L1/L)*(L1/L))
		}
	}
	return out
}

// newtonDerivSums writes the derivative pass's sums of len(l0) patterns,
// whose rows of len(e0) tab holds, into l0, l1 and l2, each added up in the
// scalar loop's order (category-major, state-ascending) from +0.
func newtonDerivSums(tab, e0, e1, e2, l0, l1, l2 []float64) {
	stride := len(e0)
	for j := range l0 {
		a := tab[j*stride : j*stride+stride]
		var s0, s1, s2 float64
		for co := 0; co+ns <= stride; co += ns {
			ac := a[co : co+ns : co+ns]
			a0, a1, a2, a3 := ac[0], ac[1], ac[2], ac[3]
			x := e0[co : co+ns : co+ns]
			s0 += a0 * x[0]
			s0 += a1 * x[1]
			s0 += a2 * x[2]
			s0 += a3 * x[3]
			x = e1[co : co+ns : co+ns]
			s1 += a0 * x[0]
			s1 += a1 * x[1]
			s1 += a2 * x[2]
			s1 += a3 * x[3]
			x = e2[co : co+ns : co+ns]
			s2 += a0 * x[0]
			s2 += a1 * x[1]
			s2 += a2 * x[2]
			s2 += a3 * x[3]
		}
		l0[j], l1[j], l2[j] = s0, s1, s2
	}
}

// newtonValueRange is newtonDerivRange's loop on e0 alone.
func (b batchedBackend) newtonValueRange(e *Engine, op *newtonOp, pr patRange, ts *tileScratch) valuePart {
	if e.patCat != nil {
		return b.scalar.newtonValueRange(e, op, pr, ts)
	}
	stride := e.ncat * ns
	e0 := op.e0[:stride]

	var out valuePart
	for pat := pr.lo; pat < pr.hi; pat++ {
		a := e.scr.sumTab[pat*stride : pat*stride+stride]
		var l0 float64
		for co := 0; co+ns <= stride; co += ns {
			ac, x := a[co:co+ns:co+ns], e0[co:co+ns:co+ns]
			l0 += ac[0] * x[0]
			l0 += ac[1] * x[1]
			l0 += ac[2] * x[2]
			l0 += ac[3] * x[3]
		}
		L := l0 * e.invCats
		if L < minPositive {
			out.underflow++
			L = minPositive
		}
		out.ll += float64(op.weights[pat]) * math.Log(L)
	}
	return out
}

// The two trivial methods sit below the kernels on purpose: the linker lays
// functions out in source order on 32-byte boundaries, and with these above
// it projectInnerTile starts in the middle of a cache line, which costs
// newview 5 % on the benchmark host (measured pinned to one CPU, both ways).

func (batchedBackend) Name() string { return "batched" }

func (batchedBackend) readsClassTables() bool { return true }
