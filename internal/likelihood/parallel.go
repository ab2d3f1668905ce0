package likelihood

import (
	"math"
	"sync"
)

// Reduction helpers shared with the serial kernels.
const minPositive = math.SmallestNonzeroFloat64

var logFn = math.Log

// The paper's RAxML lineage includes RAxML-OMP, which parallelizes the
// likelihood loops over alignment sites on shared-memory machines; the
// Cell port's LLP scheduler is the same idea mapped onto SPEs. This file is
// the real Go analogue: when Config.Threads > 1 the per-pattern loops of
// the kernels fan out over a fixed pool of goroutines, each accumulating
// into private counters that are merged afterwards, so results match the
// serial kernels (bit-for-bit for partial vectors; up to floating point
// summation order for reductions).

// parallelThreshold is the minimum number of patterns per goroutine that
// makes the fan-out worthwhile.
const parallelThreshold = 64

// parallel reports whether kernels should fan out.
func (e *Engine) parallel() bool {
	return e.Cfg.Threads > 1 && e.npat >= parallelThreshold
}

// patRange describes one goroutine's slice of the pattern loop.
type patRange struct{ lo, hi int }

// combineStats are the per-range meter contributions of the newview loop.
type combineStats struct {
	muls, adds               uint64
	bigIters                 uint64
	scaleChecks, scaleEvents uint64
}

func (s *combineStats) add(o combineStats) {
	s.muls += o.muls
	s.adds += o.adds
	s.bigIters += o.bigIters
	s.scaleChecks += o.scaleChecks
	s.scaleEvents += o.scaleEvents
}

// splitPatterns partitions [0, npat) into at most Threads ranges.
func (e *Engine) splitPatterns() []patRange {
	n := e.Cfg.Threads
	if n > e.npat {
		n = e.npat
	}
	out := make([]patRange, 0, n)
	chunk := (e.npat + n - 1) / n
	for lo := 0; lo < e.npat; lo += chunk {
		hi := lo + chunk
		if hi > e.npat {
			hi = e.npat
		}
		out = append(out, patRange{lo, hi})
	}
	return out
}

// runParallel executes fn over the given pattern ranges on worker
// goroutines. Callers compute the ranges once with splitPatterns (they
// usually also need them to size per-slot result buffers) and pass them in,
// so the partitioning is not recomputed per fan-out.
func (e *Engine) runParallel(ranges []patRange, fn func(r patRange, slot int)) {
	var wg sync.WaitGroup
	for slot, r := range ranges {
		wg.Add(1)
		go func(r patRange, slot int) {
			defer wg.Done()
			fn(r, slot)
		}(r, slot)
	}
	wg.Wait()
}

// newtonDerivs fills the three exponential blocks for branch length t and
// reduces (dlogL/dt, d2logL/dt2) over all patterns from the sum table in
// c.sumTab: the derivative pass of the Newton iteration shared by MakeNewz
// and the lazy-SPR scorer, dispatched to the engine's backend and
// parallelized over patterns when the engine is threaded. Range sums are
// combined in range order.
func (c *Ctx) newtonDerivs(t float64) (d1, d2 float64) {
	e := c.eng
	e0, e1, e2 := c.newzE0, c.newzE1, c.newzE2
	for i, lr := range c.lamr {
		ex := e.expFn(lr * t)
		e0[i] = ex
		e1[i] = lr * ex
		e2[i] = lr * lr * ex
	}
	nexp := uint64(e.nmat * ns)
	c.meter.Exps += nexp
	c.meter.Muls += 4 * nexp

	c.newtOp = newtonOp{e0: e0, e1: e1, e2: e2, weights: e.Pat.Weights}
	op := &c.newtOp
	bk := e.backend

	var underflow uint64
	if e.parallel() {
		ranges := e.splitPatterns()
		parts := make([]derivPart, len(ranges))
		e.runParallel(ranges, func(pr patRange, slot int) {
			parts[slot] = bk.newtonDerivRange(c, op, pr, slot)
		})
		for _, p := range parts {
			d1 += p.d1
			d2 += p.d2
			underflow += p.underflow
		}
	} else {
		p := bk.newtonDerivRange(c, op, patRange{0, e.npat}, 0)
		d1, d2, underflow = p.d1, p.d2, p.underflow
	}
	*c.underflow += underflow
	// Per pattern: three table dot products, then 3 invCats scalings, 2
	// divisions, 1 square and 2 weightings; 1 subtraction and 2 sums.
	table := uint64(e.ncat * ns)
	c.meter.Muls += uint64(e.npat) * (3*table + 8)
	c.meter.Adds += uint64(e.npat) * (3*table + 3)
	return d1, d2
}

// newtonValue reduces the weighted log-likelihood sum at branch length t
// from the sum table: the value pass, run once per solve at the point it
// returns (and once more at the entry point on the safeguard path). Only
// the e0 block is built and read, and this is the only place a Newton solve
// takes logarithms — one per pattern.
func (c *Ctx) newtonValue(t float64) (ll float64) {
	e := c.eng
	e0 := c.newzE0
	for i, lr := range c.lamr {
		e0[i] = e.expFn(lr * t)
	}
	nexp := uint64(e.nmat * ns)
	c.meter.Exps += nexp
	c.meter.Muls += nexp

	c.newtOp = newtonOp{e0: e0, weights: e.Pat.Weights}
	op := &c.newtOp
	bk := e.backend

	var underflow uint64
	if e.parallel() {
		ranges := e.splitPatterns()
		parts := make([]valuePart, len(ranges))
		e.runParallel(ranges, func(pr patRange, slot int) {
			parts[slot] = bk.newtonValueRange(c, op, pr, slot)
		})
		for _, p := range parts {
			ll += p.ll
			underflow += p.underflow
		}
	} else {
		p := bk.newtonValueRange(c, op, patRange{0, e.npat}, 0)
		ll, underflow = p.ll, p.underflow
	}
	*c.underflow += underflow
	// Per pattern: one table dot product, the invCats scaling and the
	// weighting of the log; one sum.
	table := uint64(e.ncat * ns)
	c.meter.Logs += uint64(e.npat)
	c.meter.Muls += uint64(e.npat) * (table + 2)
	c.meter.Adds += uint64(e.npat) * (table + 1)
	return ll
}
