package likelihood

import (
	"fmt"
	"math"
	"slices"

	"raxmlcell/internal/phylotree"
)

// newtonMaxIter bounds the Newton-Raphson iteration count per branch.
const newtonMaxIter = 64

// newtonTol is the convergence tolerance on the branch length.
const newtonTol = 1e-9

// newtonGainTol is the convergence tolerance in the unit the callers
// compare, logL: a step whose predicted gain ½·d1²/|d2| is below it is the
// last one. Six orders under the search's Epsilon; MakeNewzTo's callers may
// ask for a looser one, never a tighter one.
const newtonGainTol = 1e-8

// MakeNewz optimizes the length of the branch (p, p.Back) with respect to
// the tree likelihood using Newton-Raphson, the paper's makenewz(). As in
// RAxML it first ensures the partial vectors at both branch ends are
// current (calling newview), then iterates on a per-pattern eigenmode sum
// table: the site likelihood along a branch is
//
//	L(t) = (1/C) Σ_c Σ_k A[pat,c,k] · exp(λ_k r_c t)
//
// so first and second derivatives come from the same table. The optimized
// length is written back to the branch and returned together with the
// log-likelihood at the optimum.
func (e *Engine) MakeNewz(p *phylotree.Node) (float64, float64, error) {
	return e.makeNewz(p, newtonGainTol, true)
}

// MakeNewzTo is MakeNewz for a caller that reads only the length: the solve
// stops after the step whose predicted gain is below gainTol (or
// newtonGainTol, if that is larger), and values the likelihood only where
// the safeguard needs it. At gainTol ≤ newtonGainTol the length has the bits
// MakeNewz gives it.
func (e *Engine) MakeNewzTo(p *phylotree.Node, gainTol float64) (float64, error) {
	z, _, err := e.makeNewz(p, max(gainTol, newtonGainTol), false)
	return z, err
}

// makeNewz is MakeNewz and MakeNewzTo: the solve stops at gainTol, and the
// logL it returns is NaN unless value is set. It reads the two vectors it
// needs through the store (vector) and writes the branch length back into
// the tree; Engine.InsertionScore runs the same Newton core against its
// virtual node and leaves the tree alone.
func (e *Engine) makeNewz(p *phylotree.Node, gainTol float64, value bool) (float64, float64, error) {
	q := p.Back
	if q == nil {
		return 0, 0, fmt.Errorf("likelihood: MakeNewz on detached branch")
	}
	if p.IsTip() && q.IsTip() {
		return 0, 0, fmt.Errorf("likelihood: tip-tip branch")
	}
	if p.IsTip() {
		p, q = q, p
	}
	// After these two reads every vector facing the branch (p, q) is in
	// the store, and the final SetZ below keeps exactly those.
	pv, err := e.vector(p)
	if err != nil {
		return 0, 0, err
	}
	qv, err := e.vector(q)
	if err != nil {
		return 0, 0, err
	}
	bestT, bestLL := e.newtonOnBranch(pv, q, qv, p.Z, gainTol, value)
	// A length that moved is an edit of p's tree, which an attached engine
	// hears of; any other engine drops its own views, keeping the classes.
	if p.SetZ(bestT) && !slices.Contains(e.trees, p.Tree()) {
		e.invalidate(p, false)
	}
	return bestT, bestLL, nil
}

// newtonOnBranch optimizes the branch length between an explicit vector pv
// and a node side given by (q, qv) — q may be a tip (qv zero) — from z0: the
// sum table and the Newton solve, timed together as one OpMakenewz call. It
// is the core of MakeNewz and of the lazy SPR path, running entirely on
// engine-owned scratch.
func (e *Engine) newtonOnBranch(pv vec, q *phylotree.Node, qv vec, z0, gainTol float64, value bool) (float64, float64) {
	t0 := e.tick()
	e.Meter.MakenewzCalls++
	var qData []byte
	if q.IsTip() {
		qData = e.Pat.Data[q.Index]
	}
	scaleConst := e.buildSumTable(pv, qData, qv)
	t, ll := e.newtonSolve(z0, gainTol, value)
	e.tock(OpMakenewz, t0)
	return t, ll + scaleConst
}

// buildSumTable prepares what the Newton passes read for one branch: it
// fills e.scr.sumTab with the eigenmode sum table A[pat][c][k] of the branch
// between an explicit vector pv and a q side (tip codes or a vector) and
// e.scr.lamr with the λ_k·r_c products, and returns the t-independent scaling
// constant, summed over the blocks in block order like every other
// reduction. Each of the table's two factors depends on one side's row
// only, so it is computed once per row of its side (a repeat class, a tip
// code) and the table, one row per pattern, is their product.
func (e *Engine) buildSumTable(pv vec, qData []byte, qv vec) float64 {
	e.scr.sumOp = sumOp{p: pv, qData: qData, q: qv, pRows: e.npat, qRows: e.npat}
	if pv.cls != nil {
		e.scr.sumOp.pRows = pv.rows
	}
	if qData != nil {
		e.scr.sumOp.qRows = 16
	} else if qv.cls != nil {
		e.scr.sumOp.qRows = qv.rows
	}
	if e.scr.sumP == nil {
		e.scr.sumP = make([]float64, e.npat*e.ncat*ns)
		e.scr.sumQ = make([]float64, max(e.npat, 16)*e.ncat*ns) // a tip side has a row per code
	}
	var part sumPart
	for _, kind := range [...]passKind{passSumFactors, passSumTable} {
		e.runPass(kind)
		for b := 0; b < e.nblk; b++ {
			p := &e.scr.parts[b].sum
			part.scaleConst += p.scaleConst
			part.muls += p.muls
			part.adds += p.adds
		}
	}
	e.Meter.Muls += part.muls
	e.Meter.Adds += part.adds

	// lamr[matrix][k] = λ_k · r_c, one block per distinct rate category.
	g := e.Mod.GTR
	for cat := 0; cat < e.nmat; cat++ {
		for k := 0; k < ns; k++ {
			e.scr.lamr[cat*ns+k] = g.Lambda[k] * e.Mod.Cats[cat]
		}
	}
	e.Meter.Muls += uint64(e.nmat * ns)
	return part.scaleConst
}

// sumTableProducts fills the sum table of patterns pr with the product of the
// factor rows their classes select, and returns the range's part of the
// scaling constant. Each factor is rounded on its own, as in the expression
// for a whole entry, so the product has that entry's bits.
func (e *Engine) sumTableProducts(op *sumOp, pr patRange) sumPart {
	stride := e.ncat * ns
	var out sumPart
	for pat := pr.lo; pat < pr.hi; pat++ {
		prow, qrow := op.p.row(pat), op.q.row(pat)
		sc := op.p.sc[prow]
		if op.qData != nil {
			qrow = int(op.qData[pat] & 0x0f)
		} else {
			sc += op.q.sc[qrow]
		}
		out.scaleConst += float64(e.Pat.Weights[pat]) * float64(sc) * logMinLik
		a, b := e.scr.sumP[prow*stride:(prow+1)*stride], e.scr.sumQ[qrow*stride:(qrow+1)*stride]
		st := e.scr.sumTab[pat*stride : (pat+1)*stride]
		for k := range st {
			st[k] = a[k] * b[k]
		}
	}
	out.muls = uint64(pr.hi-pr.lo) * uint64(stride)
	return out
}

// newtonSolve runs the Newton-Raphson branch-length iteration on the tables
// buildSumTable prepared, starting from z0, and returns the point it ends
// at with its logL (without the scaling constant), or NaN for the logL when
// value is unset and the solve needed no comparison.
//
// An iteration needs only d1/d2, so each one is a derivative pass; the
// value is taken once, at the end, if at all. The loop stops after the step
// whose predicted gain ½·d1²/|d2| is below gainTol or whose length is below
// newtonTol. A loop that converged and, once inside the concave region,
// stayed there has climbed to the maximum of the basin it walked into and
// needs no comparison: a geometric walk from a non-concave start into the
// concave region, and steps cut at a branch-length bound (every short branch
// cuts one at MinBranchLength), are the ordinary course of a solve. Any
// other exit — an iterate thrown back out of the concave region, or the
// iteration cap — is guarded: the entry point is valued too and kept if it
// is the better of the two.
func (e *Engine) newtonSolve(z0, gainTol float64, value bool) (float64, float64) {
	t := z0
	concave, guarded, converged := false, false, false
	for iter := 0; iter < newtonMaxIter && !converged; iter++ {
		e.Meter.NewtonIters++
		d1, d2 := e.newtonDerivs(t)
		var next float64
		if d2 < 0 {
			concave = true
			next = newtonStep(t, d1, d2)
			converged = d1*d1 < -2*d2*gainTol
		} else {
			// Not locally concave: move along the gradient geometrically.
			guarded = guarded || concave
			if d1 > 0 {
				next = t * 2
			} else {
				next = t / 2
			}
		}
		if next < phylotree.MinBranchLength {
			next = phylotree.MinBranchLength
		}
		if next > phylotree.MaxBranchLength {
			next = phylotree.MaxBranchLength
		}
		converged = converged || math.Abs(next-t) < newtonTol*(1+t)
		t = next
	}
	//lint:ignore floatcmp bit-exact check: a solve that never left its entry point has nothing to compare
	compare := (guarded || !converged) && t != z0
	if !value && !compare {
		return t, math.NaN()
	}
	ll := e.newtonValue(t)
	if compare {
		if ll0 := e.newtonValue(z0); ll0 > ll {
			t, ll = z0, ll0
		}
	}
	return t, ll
}

// newtonDerivs fills the three exponential blocks for branch length t and
// reduces (dlogL/dt, d2logL/dt2) over all patterns from the sum table in
// e.scr.sumTab: the derivative pass of the Newton iteration shared by MakeNewz
// and the lazy-SPR scorer. Block sums are combined in block order.
func (e *Engine) newtonDerivs(t float64) (d1, d2 float64) {
	e0, e1, e2 := e.scr.newzE0, e.scr.newzE1, e.scr.newzE2
	for i, lr := range e.scr.lamr {
		ex := math.Exp(lr * t)
		e0[i] = ex
		e1[i] = lr * ex
		e2[i] = lr * lr * ex
	}
	nexp := uint64(e.nmat * ns)
	e.Meter.Exps += nexp
	e.Meter.Muls += 4 * nexp

	e.scr.newtOp = newtonOp{e0: e0, e1: e1, e2: e2, weights: e.Pat.Weights}
	e.runPass(passNewtonDeriv)
	part := e.scr.parts[0].deriv
	for b := 1; b < e.nblk; b++ {
		p := &e.scr.parts[b].deriv
		part.d1 += p.d1
		part.d2 += p.d2
		part.underflow += p.underflow
	}
	e.underflowSites += part.underflow
	// Per pattern: three table dot products, then 3 invCats scalings, 2
	// divisions, 1 square and 2 weightings; 1 subtraction and 2 sums.
	table := uint64(e.ncat * ns)
	e.Meter.Muls += uint64(e.npat) * (3*table + 8)
	e.Meter.Adds += uint64(e.npat) * (3*table + 3)
	return part.d1, part.d2
}

// newtonValue reduces the weighted log-likelihood sum at branch length t
// from the sum table: the value pass, run at the point a solve returns when
// its caller reads the value, and at both that point and the entry point on
// the safeguard path. Only the e0 block is built and read, and this is the
// only place a Newton solve takes logarithms — one per pattern.
func (e *Engine) newtonValue(t float64) float64 {
	e0 := e.scr.newzE0
	for i, lr := range e.scr.lamr {
		e0[i] = math.Exp(lr * t)
	}
	nexp := uint64(e.nmat * ns)
	e.Meter.Exps += nexp
	e.Meter.Muls += nexp

	e.scr.newtOp = newtonOp{e0: e0, weights: e.Pat.Weights}
	e.runPass(passNewtonValue)
	part := e.scr.parts[0].value
	for b := 1; b < e.nblk; b++ {
		part.ll += e.scr.parts[b].value.ll
		part.underflow += e.scr.parts[b].value.underflow
	}
	e.underflowSites += part.underflow
	// Per pattern: one table dot product, the invCats scaling and the
	// weighting of the log; one sum.
	table := uint64(e.ncat * ns)
	e.Meter.Logs += uint64(e.npat)
	e.Meter.Muls += uint64(e.npat) * (table + 2)
	e.Meter.Adds += uint64(e.npat) * (table + 1)
	return part.ll
}

// newtonStep is the iterate after t > 0 where the log-likelihood f is locally
// concave (d2 < 0). Along a branch f is shaped like a·log t − b·t, on which a
// plain Newton step from below the optimum at most doubles t and from far
// above it overshoots zero. So the step is Newton's on φ(t) = t·f′(t): same
// root, linear in t for exactly that shape (one step lands on the optimum
// from either side), positive from above, the plain step at the root; far
// below the optimum it extrapolates, so its growth is capped at 8·t. Where φ
// is not decreasing (d1 + d2·t ≥ 0: f′ falls off slower than 1/t, as it does
// up from the lower bound) the plain step is taken.
func newtonStep(t, d1, d2 float64) float64 {
	den := d1 + d2*t
	if den >= 0 {
		return t - d1/d2
	}
	return math.Min(d2*t*t/den, 8*t)
}
