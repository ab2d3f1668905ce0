// Package likelihood is the golden miniature of the kernel package: just
// enough surface for ctxownership to recognize the owned types (Ctx,
// Views), the shared Engine, and the sanctioned patterns inside the
// declaring package itself. Everything in this file must stay silent.
package likelihood

import "sync/atomic"

type Engine struct {
	ctx0    *Ctx
	Scratch *Ctx // exported bait: foreign stores into it are flagged
}

type Ctx struct{ eng *Engine }

type Views struct{ ctx *Ctx }

// Job is a non-Engine struct of this package; foreign packages must not
// park owned values in it either.
type Job struct{ V *Views }

type Pool struct{ ctxs []*Ctx }

func NewEngine() *Engine {
	e := &Engine{}
	e.ctx0 = &Ctx{eng: e} // the one sanctioned Engine slot, set by this package
	return e
}

func (e *Engine) NewCtx() *Ctx { return &Ctx{eng: e} }

func (c *Ctx) NewViews() *Views { return &Views{ctx: c} }

func (e *Engine) NewPool(n int) *Pool {
	p := &Pool{ctxs: make([]*Ctx, n)}
	for i := range p.ctxs {
		p.ctxs[i] = e.NewCtx() // same-package struct field: legal
	}
	return p
}

func (p *Pool) Ctx(i int) *Ctx { return p.ctxs[i] }

func (p *Pool) Workers() int { return len(p.ctxs) }

// Run is the sanctioned fan-out; the harness only needs its signature.
func (p *Pool) Run(fn func(w int)) {
	for w := range p.ctxs {
		fn(w)
	}
}

// published is the range executor's slot: the one place a context is
// reachable from goroutines that do not own it, for the length of a pass.
var published atomic.Pointer[Ctx]

// runPass is the sanctioned publication: offered, run, taken back.
func (c *Ctx) runPass() {
	if published.CompareAndSwap(nil, c) {
		defer published.Store(nil)
	}
}
