// Golden case for ctxownership, analyzed as raxmlcell/internal/search
// against the miniature likelihood package: the owned types and the
// Engine are recognized across the package boundary (the interprocedural
// half of the invariant), while this package's own structs remain a
// legal home for per-worker state.
package search

import (
	"sync/atomic"

	"raxmlcell/internal/likelihood"
)

var sharedCtx *likelihood.Ctx // want `package-level variable "sharedCtx" holds a likelihood\.Ctx`

// searchCtx is this package's own struct: storing owned values in it is
// the sanctioned pattern (per-worker tables indexed by Pool worker).
type searchCtx struct {
	pool  *likelihood.Pool
	views []*likelihood.Views
}

func legal(eng *likelihood.Engine) {
	sc := &searchCtx{pool: eng.NewPool(4)}
	sc.views = make([]*likelihood.Views, sc.pool.Workers()) // own struct: legal
	sc.pool.Run(func(w int) {
		sc.views[w] = sc.pool.Ctx(w).NewViews() // own struct, pool fan-out: legal
	})
}

func leakStores(eng *likelihood.Engine) {
	ctx := eng.NewCtx()
	sharedCtx = ctx   // want `likelihood\.Ctx stored in package-level variable "sharedCtx"`
	eng.Scratch = ctx // want `likelihood\.Ctx stored into shared Engine field "Scratch"`

	v := ctx.NewViews()
	j := &likelihood.Job{}
	j.V = v // want `likelihood\.Views stored into field V of .*likelihood\.Job, a struct of another package`
	_ = &likelihood.Job{
		V: v, // want `likelihood\.Views stored into a composite literal of foreign struct Job`
	}
}

func leakGoroutine(eng *likelihood.Engine) {
	ctx := eng.NewCtx()
	go func() {
		_ = ctx // want `likelihood\.Ctx "ctx" is referenced by a raw go statement`
	}()
	go consume(ctx) // want `likelihood\.Ctx "ctx" is referenced by a raw go statement`
}

func consume(c *likelihood.Ctx) { _ = c }

// leakAtomic offers a context to whoever loads the slot: only the range
// executor does that, for the length of one pass.
func leakAtomic(eng *likelihood.Engine) {
	var slot atomic.Pointer[likelihood.Ctx]
	ctx := eng.NewCtx()
	slot.Store(ctx)               // want `likelihood\.Ctx published through an atomic pointer in leakAtomic`
	slot.CompareAndSwap(nil, ctx) // want `likelihood\.Ctx published through an atomic pointer in leakAtomic`
	slot.Store(nil)               // taking it back: legal
}
