// Golden case for backendpurity, analyzed as raxmlcell/internal/likelihood:
// a miniature of the Backend seam. Range and row methods run concurrently
// over one shared Ctx (one block of patterns or rows per goroutine the range
// executor has on the pass), so they may write only operand-slice elements,
// Ctx scratch elements and the tile they are handed — never the Engine, a Ctx
// field itself, or package state.
package likelihood

type Engine struct {
	total uint64
	tbl   []float64
}

type tile struct{ buf []float64 }

type Ctx struct {
	eng       *Engine
	sumTab    []float64
	tile      tile
	underflow uint64
}

type combineOp struct{ dst []float64 }

type patRange struct{ lo, hi int }

type combineStats struct{ muls uint64 }

var globalHits int

type goodBackend struct{}

// initCtx is not a *Range method: sizing Ctx scratch before any kernel
// runs is exactly what it is for, so its field writes are legal.
func (goodBackend) initCtx(c *Ctx) {
	c.tile.buf = make([]float64, 4)
	c.sumTab = make([]float64, len(c.eng.tbl))
}

func (goodBackend) combineRows(c *Ctx, op *combineOp, pr patRange, ts *tile) combineStats {
	var st combineStats
	for pat := pr.lo; pat < pr.hi; pat++ {
		ts.buf[0] = c.eng.tbl[pat]  // the goroutine's own tile, engine read: legal
		op.dst[pat] = ts.buf[0] * 2 // operand element: legal
		c.sumTab[pat] = op.dst[pat] // Ctx scratch element: legal
		st.muls++                   // local part value: legal
	}
	return st
}

type badBackend struct{}

func (badBackend) combineRows(c *Ctx, op *combineOp, pr patRange, ts *tile) combineStats {
	c.eng.total++                     // want `writes Engine state through field total in combineRows`
	c.eng.tbl[0] = 1                  // want `writes Engine state through field tbl in combineRows`
	c.sumTab = make([]float64, pr.hi) // want `writes Ctx field sumTab directly in combineRows`
	c.underflow++                     // want `writes Ctx field underflow directly in combineRows`
	globalHits++                      // want `writes package-level variable globalHits in combineRows`
	c.tile.buf[0] = ts.buf[0]         // want `writes the Ctx's own tile in combineRows`
	for pat := pr.lo; pat < pr.hi; pat++ {
		op.dst[pat] = 1
	}
	return combineStats{}
}

// newtonDerivRange launders its store through a helper: only the
// package-local fixed point connects the call site to the write, which is
// the multi-function case the analyzer exists for.
func (badBackend) newtonDerivRange(c *Ctx, op *combineOp, pr patRange, ts *tile) combineStats {
	bumpUnderflow(c) // want `newtonDerivRange calls likelihood\.bumpUnderflow, which writes Ctx field underflow directly`
	return combineStats{}
}

// bumpUnderflow is fine on its own (drivers call it between fan-outs);
// it is the call from a *Range method that is flagged.
func bumpUnderflow(c *Ctx) { c.underflow++ }
