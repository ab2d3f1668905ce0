// Package likelihood is the golden miniature of the kernel package: just
// enough surface for ctxownership to recognize the owned types (Ctx, Views)
// and the sanctioned publication inside the declaring package itself.
// Everything in this file must stay silent.
package likelihood

import "sync/atomic"

type Engine struct{ ctx0 *Ctx }

type Ctx struct{ eng *Engine }

type Views struct{ ctx *Ctx }

// published is the range executor's slot: the one place a context is
// reachable from goroutines that do not own it, for the length of a pass.
var published atomic.Pointer[Ctx]

// runPass is the sanctioned publication: offered, run, taken back.
func (c *Ctx) runPass() {
	if published.CompareAndSwap(nil, c) {
		defer published.Store(nil)
	}
}

// offer is any other function of the declaring package: it is held to the
// rule as well.
func (c *Ctx) offer() {
	published.Store(c) // want `likelihood\.Ctx published through an atomic pointer in offer`
}
