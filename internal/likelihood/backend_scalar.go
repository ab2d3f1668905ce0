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

// initCtx is a no-op: the scalar loops run entirely on the shared Ctx
// scratch.
func (scalarBackend) initCtx(*Ctx) {}

func (scalarBackend) combineRange(c *Ctx, op *combineOp, pr patRange, _ *tileScratch) combineStats {
	e := c.eng
	ncat := e.ncat
	qData, rData := op.qData, op.rData
	qLv, rLv := op.qLv, op.rLv
	qSc, rSc := op.qSc, op.rSc
	dst, dstScale, dstLo := op.dst, op.dstScale, op.dstLo

	var st combineStats
	for pat := pr.lo; pat < pr.hi; pat++ {
		base := pat * ncat * ns
		dbase := (pat - dstLo) * ncat * ns
		for cat := 0; cat < ncat; cat++ {
			mi := e.matIdx(pat, cat)
			var left, right [ns]float64
			if qData != nil {
				code := qData[pat] & 0x0f
				copy(left[:], c.tipPL[mi*16*ns+int(code)*ns:][:ns])
			} else {
				pc := c.pLeft[mi*ns*ns:]
				x := qLv[base+cat*ns:]
				for i := 0; i < ns; i++ {
					left[i] = pc[i*ns]*x[0] + pc[i*ns+1]*x[1] + pc[i*ns+2]*x[2] + pc[i*ns+3]*x[3]
				}
				st.muls += ns * ns
				st.adds += ns * (ns - 1)
			}
			if rData != nil {
				code := rData[pat] & 0x0f
				copy(right[:], c.tipPR[mi*16*ns+int(code)*ns:][:ns])
			} else {
				pc := c.pRight[mi*ns*ns:]
				x := rLv[base+cat*ns:]
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
		if qSc != nil {
			sc += qSc[pat]
		}
		if rSc != nil {
			sc += rSc[pat]
		}
		st.scaleChecks++
		if e.needsScalingPure(dst[dbase : dbase+ncat*ns]) {
			for k := dbase; k < dbase+ncat*ns; k++ {
				dst[k] *= TwoTo256
			}
			st.muls += uint64(ncat * ns)
			sc++
			st.scaleEvents++
		}
		dstScale[pat-dstLo] = sc
	}
	return st
}

func (scalarBackend) evaluateRange(c *Ctx, op *evalOp, pr patRange, _ *tileScratch) evalPart {
	e := c.eng
	ncat := e.ncat
	freqs := &e.Mod.GTR.Freqs
	pLv, pScale, pLo := op.pLv, op.pScale, op.pLo
	qData, qLv, qScale := op.qData, op.qLv, op.qScale
	perSite, qProj := op.perSite, op.qProj

	var out evalPart
	for pat := pr.lo; pat < pr.hi; pat++ {
		base := pat * ncat * ns
		pbase := (pat - pLo) * ncat * ns
		site := 0.0
		for cat := 0; cat < ncat; cat++ {
			mi := e.matIdx(pat, cat)
			x := pLv[pbase+cat*ns:]
			var proj [ns]float64
			if qProj != nil {
				copy(proj[:], qProj[base+cat*ns:][:ns])
			} else if qData != nil {
				code := qData[pat] & 0x0f
				copy(proj[:], c.tipPR[mi*16*ns+int(code)*ns:][:ns])
			} else {
				pc := c.pLeft[mi*ns*ns:]
				y := qLv[base+cat*ns:]
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
		sc := pScale[pat-pLo]
		if qScale != nil {
			sc += qScale[pat]
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

func (scalarBackend) sumTableRange(c *Ctx, op *sumOp, pr patRange, _ *tileScratch) sumPart {
	e := c.eng
	g := e.Mod.GTR
	ncat := e.ncat
	sumTab := c.sumTab
	pLv, pSc := op.pLv, op.pSc
	qData, qLv, qSc := op.qData, op.qLv, op.qSc

	var out sumPart
	for pat := pr.lo; pat < pr.hi; pat++ {
		base := pat * ncat * ns
		sc := pSc[pat]
		if qSc != nil {
			sc += qSc[pat]
		}
		out.scaleConst += float64(e.Pat.Weights[pat]) * float64(sc) * logMinLik
		for cat := 0; cat < ncat; cat++ {
			x := pLv[base+cat*ns:]
			var y [ns]float64
			if qData != nil {
				y = e.tipVec[qData[pat]&0x0f]
			} else {
				copy(y[:], qLv[base+cat*ns:][:ns])
			}
			for k := 0; k < ns; k++ {
				a := 0.0
				b := 0.0
				for i := 0; i < ns; i++ {
					a += g.Freqs[i] * x[i] * g.V[i][k]
					b += g.VInv[k][i] * y[i]
				}
				sumTab[base+cat*ns+k] = a * b
			}
			out.muls += ns * (2*ns + ns + 1)
			out.adds += ns * 2 * (ns - 1)
		}
	}
	return out
}

func (scalarBackend) newtonDerivRange(c *Ctx, op *newtonOp, pr patRange, _ *tileScratch) derivPart {
	e := c.eng
	ncat := e.ncat
	sumTab := c.sumTab
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

func (scalarBackend) newtonValueRange(c *Ctx, op *newtonOp, pr patRange, _ *tileScratch) valuePart {
	e := c.eng
	ncat := e.ncat
	sumTab := c.sumTab
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
		out.ll += float64(weights[pat]) * logFn(L)
	}
	return out
}
