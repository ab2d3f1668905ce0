// Golden case for ctxownership, analyzed as raxmlcell/internal/search
// against the miniature likelihood package: the owned type is recognized
// across the package boundary (the interprocedural half of the invariant).
package search

import (
	"sync/atomic"

	"raxmlcell/internal/likelihood"
)

// leakAtomic offers an engine to whoever loads the slot: only the range
// executor does that, for the length of one pass.
func leakAtomic(eng *likelihood.Engine, engs []*likelihood.Engine) {
	var slot atomic.Pointer[likelihood.Engine]
	slot.Store(eng)               // want `likelihood\.Engine published through an atomic pointer in leakAtomic`
	slot.CompareAndSwap(nil, eng) // want `likelihood\.Engine published through an atomic pointer in leakAtomic`
	slot.Store(nil)               // taking it back: legal

	var all atomic.Pointer[[]*likelihood.Engine]
	all.Swap(&engs) // want `likelihood\.Engine published through an atomic pointer in leakAtomic`
}
