package search

import (
	"math"
	"runtime"

	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/obs"
	"raxmlcell/internal/phylotree"
)

// AutoWorkers returns the default search-worker fan-out for this process:
// one worker per schedulable CPU (GOMAXPROCS). Callers that expose a
// -search-workers knob should treat 0 as "auto" and resolve it through
// this function before filling Options.Workers, so that Options itself
// keeps its stable contract (Workers <= 1 means serial — a zero value
// never silently spawns a pool).
func AutoWorkers() int { return runtime.GOMAXPROCS(0) }

// The paper layers task-level parallelism (EDTLP, and at scale MGPS) on
// top of the loop-level parallelism inside each kernel: independent
// likelihood tasks run concurrently on different SPEs. This file is the
// search-side half of that axis — the regraft candidates of one pruned
// subtree are independent read-only queries against the frozen tree, so
// they fan out over a likelihood.Pool, each worker scoring through its own
// context-bound Views.

// minParallelCandidates is the smallest candidate count worth fanning out;
// below it the per-fanout overhead (goroutine spawn, the WaitGroup barrier,
// the meter merge) exceeds the win: a candidate is two or three kernel
// calls on vectors that are already there.
const minParallelCandidates = 4

// candScore is one scored insertion candidate. ok marks candidates that
// carry a usable score (detached edges are skipped, mirroring the serial
// loop's continue).
type candScore struct {
	z, ll float64
	ok    bool
	err   error
}

// searchCtx carries the task-parallel state of one search: the worker pool
// (nil = serial), per-worker view tables, reusable candidate/score buffers
// (hoisted out of the SPR hot loop — see the hotpathalloc analyzer), and
// live metric handles.
type searchCtx struct {
	pool  *likelihood.Pool
	views []*likelihood.Views

	// Every vector that faces the prune point is read from the engine's own
	// node slots; a view table holds only the ones facing away from it, one
	// per candidate edge, which die with the prune. serialViews is the
	// primary-context table that scores when there is no pool (private,
	// released per prune) or too few candidates to fan out. shared is the
	// pooled search's store of those vectors: views and serialViews read
	// through it, so each is computed once whichever worker asks first.
	shared      *likelihood.SharedCache
	serialViews *likelihood.Views

	// sharedPublished is what this search has already added to
	// cache.shared_hits (see publishCacheMetrics).
	sharedPublished uint64

	cands  []*phylotree.Node
	scores []candScore

	// roundParallel records whether the current round used the pool at
	// least once; rounds whose prunes all fell under minParallelCandidates
	// do not count as parallel.
	roundParallel bool

	// traceRound is the current round's trace context (set by Run before
	// each round, round-labeled); candidate-batch spans record through it.
	// The zero Ctx before the first round — e.g. when scoreInsertions runs
	// under OptimizeAlpha's NNI pass — is a valid no-op.
	traceRound obs.Ctx

	candidatesScored *obs.Counter
	parallelRounds   *obs.Counter
	rangeBlocks      *obs.Counter
	rangeAdopted     *obs.Counter
	sharedHits       *obs.Counter
	epochGauge       *obs.Gauge
	busyPeak         *obs.Gauge
}

// newSearchCtx builds the per-search state from the options: one private
// view table for a serial search; for opt.Workers > 1 a worker pool whose
// per-worker view tables read through one shared store; and metric handles
// when opt.Metrics is set.
func newSearchCtx(eng *likelihood.Engine, opt Options) *searchCtx {
	sc := &searchCtx{traceRound: opt.Trace}
	if opt.Metrics != nil {
		sc.candidatesScored = opt.Metrics.Counter("search.candidates_scored")
		sc.parallelRounds = opt.Metrics.Counter("search.parallel_rounds")
		sc.rangeBlocks = opt.Metrics.Counter("kernel.range_blocks")
		sc.rangeAdopted = opt.Metrics.Counter("kernel.range_blocks_adopted")
	}
	if opt.Workers <= 1 {
		sc.serialViews = eng.NewViews()
		return sc
	}
	sc.pool = eng.NewPool(opt.Workers)
	sc.shared = eng.NewSharedCache()
	eng.UseSharedCache(sc.shared)
	// Shared-backed view tables are built once and survive tree edits (the
	// store's epoch tags track them).
	sc.views = make([]*likelihood.Views, sc.pool.Workers())
	for w := range sc.views {
		sc.views[w] = sc.pool.Ctx(w).NewSharedViews(sc.shared)
	}
	sc.serialViews = eng.NewSharedViews(sc.shared)
	if opt.Metrics != nil {
		opt.Metrics.Gauge("search.pool_workers").Set(float64(sc.pool.Workers()))
		busy := opt.Metrics.Gauge("search.pool_busy")
		sc.pool.OnOccupancy = func(b, _ int) { busy.Set(float64(b)) }
		sc.busyPeak = opt.Metrics.Gauge("search.pool_busy_peak")
		sc.sharedHits = opt.Metrics.Counter("cache.shared_hits")
		sc.epochGauge = opt.Metrics.Gauge("cache.epoch")
	}
	return sc
}

// close detaches the shared vector store from the engine; the search
// installed it, so the search removes it before handing the engine back to
// the caller.
func (sc *searchCtx) close(eng *likelihood.Engine) {
	sc.publishCacheMetrics()
	if sc.pool != nil {
		eng.UseSharedCache(nil)
		if sc.candidatesScored != nil {
			sc.pool.OnOccupancy = nil
		}
	}
}

// publishCacheMetrics adds the shared-store hits since this search's previous
// publish to cache.shared_hits — every job of a campaign shares the registry,
// so a search adds its own share and never stores a total — and republishes
// the store's epoch and the pool's occupancy high-water mark, which are
// last-writer gauges, and the range executor's two block counters, which are
// the process's and so the same whichever search stores them. Called at every
// round boundary and at close.
func (sc *searchCtx) publishCacheMetrics() {
	if sc.rangeBlocks != nil {
		run, adopted := likelihood.RangeBlocks()
		sc.rangeBlocks.Store(run)
		sc.rangeAdopted.Store(adopted)
	}
	if sc.sharedHits != nil {
		hits := sc.shared.Hits()
		sc.sharedHits.Add(hits - sc.sharedPublished)
		sc.sharedPublished = hits
		sc.epochGauge.Set(float64(sc.shared.Epoch()))
	}
	if sc.pool != nil && sc.busyPeak != nil {
		sc.busyPeak.Set(float64(sc.pool.PeakBusy()))
	}
}

// scoreInsertions fills sc.scores with the lazy insertion score of every
// candidate edge for the subtree pruned by ps (starting branch length z0).
// It first orients the engine's slots toward the prune point, so that a
// candidate costs the vector facing away from it at its edge (shared with
// the candidates beyond it), the combine of the virtual insertion node and
// one Newton solve. With a pool it then fans the candidates out, each worker
// scoring through its own context's Views over the shared store; serially it
// scores through one Views in candidate order. Either way the same vectors
// are computed and the returned slice is indexed by candidate, so the
// caller's reduction — and therefore the chosen move — is independent of
// scheduling. The first error in candidate order wins.
func (sc *searchCtx) scoreInsertions(eng *likelihood.Engine, cands []*phylotree.Node, ps *phylotree.PrunedSubtree, z0 float64) ([]candScore, error) {
	sub := ps.P
	csp := sc.traceRound.Start("candidates", "search")
	defer csp.End()
	if cap(sc.scores) < len(cands) {
		sc.scores = make([]candScore, len(cands))
	}
	scores := sc.scores[:len(cands)]
	for i := range scores {
		scores[i] = candScore{}
	}

	// Orient every slot toward the prune point: Prune left valid exactly the
	// slots that already face the joined branch, so this recomputes only the
	// mis-oriented ones, and every vector a candidate needs that does not
	// contain the prune point is then a read of a slot nobody writes.
	eng.NewView(ps.Q)
	eng.NewView(ps.R)
	eng.NewView(sub.Back)

	if sc.pool == nil || len(cands) < minParallelCandidates {
		for i, cand := range cands {
			if cand.Back == nil {
				continue
			}
			z, ll, err := sc.serialViews.InsertionScore(cand, sub, z0)
			scores[i] = candScore{z: z, ll: ll, ok: err == nil, err: err}
			if err != nil {
				break
			}
		}
		sc.serialViews.Release()
	} else {
		sc.roundParallel = true
		sc.pool.Run(len(cands), func(w, i int) {
			cand := cands[i]
			if cand.Back == nil {
				return
			}
			z, ll, err := sc.views[w].InsertionScore(cand, sub, z0)
			scores[i] = candScore{z: z, ll: ll, ok: err == nil, err: err}
		})
	}
	scored := uint64(0)
	for i := range scores {
		if scores[i].err != nil {
			return nil, scores[i].err
		}
		if scores[i].ok {
			scored++
		}
	}
	if sc.candidatesScored != nil {
		sc.candidatesScored.Add(scored)
	}
	return scores, nil
}

// bestCandidate is the SPR winner reduction: the highest log-likelihood
// among the scored candidates, ties broken by lowest candidate index (the
// strictly-greater comparison in index order — byte-identical to the
// serial loop's choice). Returns index -1 when nothing was scored.
func bestCandidate(scores []candScore, z0 float64) (bestIdx int, bestZ, bestLL float64) {
	bestIdx, bestZ, bestLL = -1, z0, math.Inf(-1)
	for i := range scores {
		if scores[i].ok && scores[i].ll > bestLL {
			bestIdx, bestZ, bestLL = i, scores[i].z, scores[i].ll
		}
	}
	return bestIdx, bestZ, bestLL
}

// bestNNICandidate is the NNI reduction: replay the serial acceptance
// chain — a candidate displaces the incumbent only when it gains more than
// eps over it, starting from the current likelihood — in candidate order,
// so the pooled scoring pass picks exactly the move the serial loop would.
func bestNNICandidate(scores []candScore, z0, current, eps float64) (bestIdx int, bestZ, bestLL float64) {
	bestIdx, bestZ, bestLL = -1, z0, current
	for i := range scores {
		if scores[i].ok && scores[i].ll > bestLL+eps {
			bestIdx, bestZ, bestLL = i, scores[i].z, scores[i].ll
		}
	}
	return bestIdx, bestZ, bestLL
}

// finishRound publishes the per-round parallelism accounting and resets it.
func (sc *searchCtx) finishRound() {
	if sc.roundParallel && sc.parallelRounds != nil {
		sc.parallelRounds.Inc()
	}
	sc.roundParallel = false
	sc.publishCacheMetrics()
}

// appendNNITargets collects the NNI candidate branches around v: the two
// branches hanging off v's ring besides v itself (after pruning, these are
// the re-insertion points of the swapped subtree). Records touching the
// pruned ring sub are excluded, mirroring the old scoring-loop guard.
func appendNNITargets(out []*phylotree.Node, v, sub *phylotree.Node) []*phylotree.Node {
	ring := v.Ring()
	if r := ring[1]; r != sub && r.Back != nil && r.Back != sub {
		out = append(out, r)
	}
	if r := ring[2]; r != sub && r.Back != nil && r.Back != sub {
		out = append(out, r)
	}
	return out
}
