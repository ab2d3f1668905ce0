// Golden case for backendpurity, analyzed as raxmlcell/internal/likelihood:
// a miniature of the Backend seam. Range and row methods run concurrently
// over one shared Engine (one block of patterns or rows per goroutine the
// range executor has on the pass), so they may write only operand-slice
// elements, scratch elements and the tile they are handed — never engine
// state, a scratch field's header, the owner's tile, or package state.
package likelihood

type tile struct{ buf []float64 }

// scratch is the engine's per-call kernel scratch, told from engine state by
// its type.
type scratch struct {
	sumTab []float64
	tile   tile
	tabled uint64
}

type Meter struct{ Muls uint64 }

type Engine struct {
	total          uint64
	tbl            []float64
	Meter          Meter
	underflowSites uint64
	scr            scratch
}

type combineOp struct{ dst []float64 }

type patRange struct{ lo, hi int }

type combineStats struct{ muls uint64 }

var globalHits int

type goodBackend struct{}

// allocScratch is not a *Range method: sizing the scratch before any kernel
// runs is exactly what it is for, so its writes are legal.
func (goodBackend) allocScratch(e *Engine) {
	e.scr.tile.buf = make([]float64, 4)
	e.scr.sumTab = make([]float64, len(e.tbl))
}

func (goodBackend) combineRows(e *Engine, op *combineOp, pr patRange, ts *tile) combineStats {
	var st combineStats
	for pat := pr.lo; pat < pr.hi; pat++ {
		ts.buf[0] = e.tbl[pat]          // the goroutine's own tile, engine read: legal
		op.dst[pat] = ts.buf[0] * 2     // operand element: legal
		e.scr.sumTab[pat] = op.dst[pat] // scratch element: legal
		st.muls++                       // local part value: legal
	}
	return st
}

type badBackend struct{}

func (badBackend) combineRows(e *Engine, op *combineOp, pr patRange, ts *tile) combineStats {
	e.total++                             // want `writes Engine state through field total in combineRows`
	e.tbl[0] = 1                          // want `writes Engine state through field tbl in combineRows`
	e.Meter.Muls += 4                     // want `writes Engine state through field Meter in combineRows`
	e.scr.sumTab = make([]float64, pr.hi) // want `reassigns scratch field sumTab in combineRows`
	e.scr.tabled++                        // want `reassigns scratch field tabled in combineRows`
	globalHits++                          // want `writes package-level variable globalHits in combineRows`
	e.scr.tile.buf[0] = ts.buf[0]         // want `writes the owner's tile in combineRows`
	for pat := pr.lo; pat < pr.hi; pat++ {
		op.dst[pat] = 1
	}
	return combineStats{}
}

// newtonDerivRange launders its store through a helper: only the
// package-local fixed point connects the call site to the write, which is
// the multi-function case the analyzer exists for.
func (badBackend) newtonDerivRange(e *Engine, op *combineOp, pr patRange, ts *tile) combineStats {
	bumpUnderflow(e) // want `newtonDerivRange calls likelihood\.bumpUnderflow, which writes Engine state through field underflowSites`
	return combineStats{}
}

// bumpUnderflow is fine on its own (drivers call it between passes);
// it is the call from a *Range method that is flagged.
func bumpUnderflow(e *Engine) { e.underflowSites++ }
