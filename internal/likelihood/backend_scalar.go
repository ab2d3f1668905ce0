package likelihood

import "math"

// scalarBackend is the reference implementation of the Backend contract:
// the pattern-at-a-time loops the engine has always run, moved verbatim so
// every other backend has a bit-exact oracle. It matches the shape the
// paper profiled on the PPE before restructuring — one pattern's full
// category block per iteration, transition-matrix entries reloaded per
// pattern.
type scalarBackend struct{}

func (scalarBackend) Name() string { return "scalar" }

// readsClassTables is false: the oracle projects every row.
func (scalarBackend) readsClassTables() bool { return false }

func (scalarBackend) combineRows(e *Engine, op *combineOp, pr patRange, _ *tileScratch) combineStats {
	ncat := e.ncat
	qData, rData := op.qData, op.rData
	q, r := &op.q, &op.r
	dst, dstScale, dstLo := op.dst, op.dstScale, op.dstLo

	var st combineStats
	for row := pr.lo; row < pr.hi; row++ {
		pat := row
		if op.first != nil {
			pat = int(op.first[row])
		}
		qr, rr := q.row(pat), r.row(pat)
		dbase := (row - dstLo) * ncat * ns
		for cat := 0; cat < ncat; cat++ {
			mi := e.matIdx(pat, cat)
			var left, right [ns]float64
			if qData != nil {
				code := qData[pat] & 0x0f
				copy(left[:], e.scr.tipPL[int(code)*e.nmat*ns+mi*ns:][:ns])
			} else {
				pc := e.scr.pLeft[mi*ns*ns:]
				x := q.lv[qr*ncat*ns+cat*ns:]
				for i := 0; i < ns; i++ {
					left[i] = pc[i*ns]*x[0] + pc[i*ns+1]*x[1] + pc[i*ns+2]*x[2] + pc[i*ns+3]*x[3]
				}
				st.muls += ns * ns
				st.adds += ns * (ns - 1)
			}
			if rData != nil {
				code := rData[pat] & 0x0f
				copy(right[:], e.scr.tipPR[int(code)*e.nmat*ns+mi*ns:][:ns])
			} else {
				pc := e.scr.pRight[mi*ns*ns:]
				x := r.lv[rr*ncat*ns+cat*ns:]
				for i := 0; i < ns; i++ {
					right[i] = pc[i*ns]*x[0] + pc[i*ns+1]*x[1] + pc[i*ns+2]*x[2] + pc[i*ns+3]*x[3]
				}
				st.muls += ns * ns
				st.adds += ns * (ns - 1)
			}
			for i := 0; i < ns; i++ {
				dst[dbase+cat*ns+i] = left[i] * right[i]
			}
			st.muls += ns
		}
		st.bigIters++

		sc := int32(0)
		if q.sc != nil {
			sc += q.sc[qr]
		}
		if r.sc != nil {
			sc += r.sc[rr]
		}
		st.scaleChecks++
		if e.needsScaling(dst[dbase : dbase+ncat*ns]) {
			for k := dbase; k < dbase+ncat*ns; k++ {
				dst[k] *= TwoTo256
			}
			st.muls += uint64(ncat * ns)
			sc++
			st.scaleEvents++
		}
		dstScale[row-dstLo] = sc
	}
	return st
}

func (scalarBackend) evaluateRange(e *Engine, op *evalOp, pr patRange, _ *tileScratch) evalPart {
	ncat := e.ncat
	freqs := &e.Mod.GTR.Freqs
	p, pLo := &op.p, op.pLo
	qData, q := op.qData, &op.q
	perSite, qProj := op.perSite, op.qProj

	var out evalPart
	for pat := pr.lo; pat < pr.hi; pat++ {
		base := pat * ncat * ns
		prow := pat - pLo
		if p.cls != nil {
			prow = int(p.cls[pat])
		}
		pbase := prow * ncat * ns
		qr := q.row(pat)
		site := 0.0
		for cat := 0; cat < ncat; cat++ {
			mi := e.matIdx(pat, cat)
			x := p.lv[pbase+cat*ns:]
			var proj [ns]float64
			if qProj != nil {
				copy(proj[:], qProj[base+cat*ns:][:ns])
			} else if qData != nil {
				code := qData[pat] & 0x0f
				copy(proj[:], e.scr.tipPR[int(code)*e.nmat*ns+mi*ns:][:ns])
			} else {
				pc := e.scr.pLeft[mi*ns*ns:]
				y := q.lv[qr*ncat*ns+cat*ns:]
				for i := 0; i < ns; i++ {
					proj[i] = pc[i*ns]*y[0] + pc[i*ns+1]*y[1] + pc[i*ns+2]*y[2] + pc[i*ns+3]*y[3]
				}
				out.st.muls += ns * ns
				out.st.adds += ns * (ns - 1)
			}
			for i := 0; i < ns; i++ {
				site += freqs[i] * x[i] * proj[i]
			}
			out.st.muls += 2 * ns
			out.st.adds += ns
		}
		site *= e.invCats
		out.st.muls++
		sc := p.sc[prow]
		if q.sc != nil {
			sc += q.sc[qr]
		}
		if site <= 0 || math.IsNaN(site) {
			out.underflow++
			site = math.SmallestNonzeroFloat64
		}
		siteLog := math.Log(site) + float64(sc)*logMinLik
		if perSite != nil {
			perSite[pat] = siteLog
		}
		out.sum += float64(e.Pat.Weights[pat]) * siteLog
		out.st.bigIters++ // doubles as the per-pattern log count here
		out.st.muls += 2
		out.st.adds += 2
	}
	return out
}

func (scalarBackend) sumTableFactors(e *Engine, op *sumOp, pr, qr patRange, _ *tileScratch) sumPart {
	g := e.Mod.GTR
	stride := e.ncat * ns
	for o := pr.lo * stride; o < pr.hi*stride; o += ns {
		x := op.p.lv[o : o+ns]
		for k := 0; k < ns; k++ {
			a := 0.0
			for i := 0; i < ns; i++ {
				a += g.Freqs[i] * x[i] * g.V[i][k]
			}
			e.scr.sumP[o+k] = a
		}
	}
	for o := qr.lo * stride; o < qr.hi*stride; o += ns {
		var y [ns]float64
		if op.qData != nil {
			y = e.tipVec[o/stride]
		} else {
			copy(y[:], op.q.lv[o:o+ns])
		}
		for k := 0; k < ns; k++ {
			b := 0.0
			for i := 0; i < ns; i++ {
				b += g.VInv[k][i] * y[i]
			}
			e.scr.sumQ[o+k] = b
		}
	}
	return sumTableStats(e, pr, qr)
}

// sumTableStats is what a factor pass over rows pr and qr does: per row and
// category 2·ns² multiplications on the p side, ns² on the q side, and
// ns·(ns−1) additions on each.
func sumTableStats(e *Engine, pr, qr patRange) sumPart {
	np, nq := uint64(pr.hi-pr.lo)*uint64(e.ncat), uint64(qr.hi-qr.lo)*uint64(e.ncat)
	return sumPart{muls: (2*np + nq) * ns * ns, adds: (np + nq) * ns * (ns - 1)}
}

func (scalarBackend) newtonDerivRange(e *Engine, op *newtonOp, pr patRange, _ *tileScratch) derivPart {
	ncat := e.ncat
	sumTab := e.scr.sumTab
	e0, e1, e2 := op.e0, op.e1, op.e2
	weights := op.weights

	var out derivPart
	for pat := pr.lo; pat < pr.hi; pat++ {
		base := pat * ncat * ns
		var L, L1, L2 float64
		for cc := 0; cc < ncat; cc++ {
			mb := e.matIdx(pat, cc) * ns
			for k := 0; k < ns; k++ {
				a := sumTab[base+cc*ns+k]
				L += a * e0[mb+k]
				L1 += a * e1[mb+k]
				L2 += a * e2[mb+k]
			}
		}
		L *= e.invCats
		L1 *= e.invCats
		L2 *= e.invCats
		if L < minPositive {
			out.underflow++
			L = minPositive
		}
		w := float64(weights[pat])
		out.d1 += w * (L1 / L)
		out.d2 += w * (L2/L - (L1/L)*(L1/L))
	}
	return out
}

func (scalarBackend) newtonValueRange(e *Engine, op *newtonOp, pr patRange, _ *tileScratch) valuePart {
	ncat := e.ncat
	sumTab := e.scr.sumTab
	e0 := op.e0
	weights := op.weights

	var out valuePart
	for pat := pr.lo; pat < pr.hi; pat++ {
		base := pat * ncat * ns
		var L float64
		for cc := 0; cc < ncat; cc++ {
			mb := e.matIdx(pat, cc) * ns
			for k := 0; k < ns; k++ {
				L += sumTab[base+cc*ns+k] * e0[mb+k]
			}
		}
		L *= e.invCats
		if L < minPositive {
			out.underflow++
			L = minPositive
		}
		out.ll += float64(weights[pat]) * math.Log(L)
	}
	return out
}
