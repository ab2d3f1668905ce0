// Package likelihood is the golden miniature of the kernel package: just
// enough surface for ctxownership to recognize the owned type (Engine) and
// the sanctioned publication inside the declaring package itself.
package likelihood

import "sync/atomic"

type scratch struct{ sumTab []float64 }

type Engine struct{ scr scratch }

// published is the range executor's slot: the one place an engine is
// reachable from goroutines that do not own it, for the length of a pass.
var published atomic.Pointer[Engine]

// runPass is the sanctioned publication: offered, run, taken back.
func (e *Engine) runPass() {
	if published.CompareAndSwap(nil, e) {
		defer published.Store(nil)
	}
}

// offer is any other function of the declaring package: it is held to the
// rule as well.
func (e *Engine) offer() {
	published.Store(e) // want `likelihood\.Engine published through an atomic pointer in offer`
}
