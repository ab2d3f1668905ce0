// Golden case for ctxownership, analyzed as raxmlcell/internal/search
// against the miniature likelihood package: the owned types are recognized
// across the package boundary (the interprocedural half of the invariant).
package search

import (
	"sync/atomic"

	"raxmlcell/internal/likelihood"
)

// leakAtomic offers a context to whoever loads the slot: only the range
// executor does that, for the length of one pass.
func leakAtomic(ctx *likelihood.Ctx, v *likelihood.Views) {
	var slot atomic.Pointer[likelihood.Ctx]
	slot.Store(ctx)               // want `likelihood\.Ctx published through an atomic pointer in leakAtomic`
	slot.CompareAndSwap(nil, ctx) // want `likelihood\.Ctx published through an atomic pointer in leakAtomic`
	slot.Store(nil)               // taking it back: legal

	var views atomic.Pointer[likelihood.Views]
	views.Swap(v) // want `likelihood\.Views published through an atomic pointer in leakAtomic`
}
