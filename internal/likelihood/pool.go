package likelihood

import (
	"sync"
	"sync/atomic"
)

// Pool is a fixed set of worker kernel contexts: the task-level parallelism
// axis of the engine, orthogonal to the block executor (which spreads the
// per-pattern loops *inside* one kernel call over idle CPUs). It corresponds to the
// paper's EDTLP/MGPS schedulers dispatching independent likelihood tasks to
// different SPEs — here, the independent SPR insertion candidates of one
// pruned subtree (see package search).
//
// Determinism: Run partitions tasks into contiguous per-worker blocks that
// depend only on (task count, worker count) — there is no work stealing —
// and merges worker meters into the engine in worker order after every
// fan-out, so per-run Meter totals are reproducible at a fixed seed
// regardless of goroutine scheduling.
type Pool struct {
	eng     *Engine
	ctxs    []*Ctx
	busy    atomic.Int64
	running atomic.Bool

	// peakBusy is the high-water busy-worker count since NewPool
	// (search.pool_busy_peak).
	peakBusy atomic.Int64

	// workerMeters[w] accumulates worker w's kernel counters across
	// fan-outs, snapshotted in Run before the per-fan-out merge resets the
	// context. Per-worker attribution of shared-cache work (who computed,
	// who hit) depends on goroutine scheduling; only the sum across workers
	// is deterministic.
	workerMeters []Meter

	// OnOccupancy, when non-nil, observes the busy-worker count at every
	// transition — the feed behind the search.pool_busy gauge. It is
	// called concurrently and must be safe for that.
	OnOccupancy func(busy, workers int)
}

// NewPool returns a pool of n worker contexts over the engine (n is
// clamped to >= 1). The pooled resource is the per-worker kernel scratch;
// goroutines themselves are cheap and spawned per fan-out.
func (e *Engine) NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{eng: e, ctxs: make([]*Ctx, n), workerMeters: make([]Meter, n)}
	for i := range p.ctxs {
		p.ctxs[i] = e.NewCtx()
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return len(p.ctxs) }

// Ctx returns worker i's kernel context, e.g. to bind a per-worker Views.
func (p *Pool) Ctx(i int) *Ctx { return p.ctxs[i] }

// WorkerMeter returns worker i's accumulated kernel counters across every
// fan-out so far: the per-worker attribution of newview/shared-cache work.
// Which worker performed which share is scheduling-dependent under the
// shared cache's single-flight; the sum over all workers equals the
// pool-attributed part of Engine.Meter and is deterministic.
func (p *Pool) WorkerMeter(i int) Meter { return p.workerMeters[i] }

// PeakBusy returns the high-water concurrently-busy worker count observed
// since the pool was created.
func (p *Pool) PeakBusy() int { return int(p.peakBusy.Load()) }

// Run executes fn(worker, task) for every task in [0, n), giving each
// worker a contiguous block of tasks, and blocks until all tasks finish.
// Worker w's context must be the only one fn uses on that goroutine.
// After the fan-out every worker context's private meter is merged into
// the engine in worker order, so Engine.Meter stays single-writer and
// deterministic. Run itself must not be called concurrently or re-entrantly.
func (p *Pool) Run(n int, fn func(worker, task int)) {
	if n <= 0 {
		return
	}
	if p.running.Swap(true) {
		panic("likelihood: concurrent or re-entrant Pool.Run")
	}
	defer p.running.Store(false)
	w := len(p.ctxs)
	if w > n {
		w = n
	}
	var wg sync.WaitGroup
	for wk := 0; wk < w; wk++ {
		lo, hi := n*wk/w, n*(wk+1)/w
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(wk, lo, hi int) {
			defer wg.Done()
			p.setBusy(+1)
			defer p.setBusy(-1)
			for t := lo; t < hi; t++ {
				fn(wk, t)
			}
		}(wk, lo, hi)
	}
	wg.Wait()
	for i, c := range p.ctxs {
		// Snapshot per-worker attribution before mergeInto resets it.
		p.workerMeters[i].Add(&c.ownMeter)
		c.mergeInto(p.eng)
	}
}

func (p *Pool) setBusy(d int64) {
	b := p.busy.Add(d)
	for {
		peak := p.peakBusy.Load()
		if b <= peak || p.peakBusy.CompareAndSwap(peak, b) {
			break
		}
	}
	if p.OnOccupancy != nil {
		p.OnOccupancy(int(b), len(p.ctxs))
	}
}
