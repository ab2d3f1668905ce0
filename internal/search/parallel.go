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

// AutoWorkersFrom sizes the fan-out from measured occupancy instead of raw
// CPU count: it returns AutoWorkers() capped at the search.pool_busy_peak
// gauge recorded in reg by a previous pooled search. A pool whose peak
// occupancy never reached the worker count was over-provisioned — candidate
// blocks are contiguous and unstolen, so idle workers are pure fan-out
// overhead — and the next search in the same process (bootstrap replicates,
// repeated inferences) right-sizes to what was actually used. With no
// registry, no recorded peak, or a peak at/above the CPU count it behaves
// exactly like AutoWorkers.
func AutoWorkersFrom(reg *obs.Registry) int {
	w := AutoWorkers()
	if reg == nil {
		return w
	}
	snap := reg.Snapshot()
	if peak, ok := snap.GaugeValue("search.pool_busy_peak"); ok {
		if p := int(peak); p >= 1 && p < w {
			return p
		}
	}
	return w
}

// The paper layers task-level parallelism (EDTLP, and at scale MGPS) on
// top of the loop-level parallelism inside each kernel: independent
// likelihood tasks run concurrently on different SPEs. This file is the
// search-side half of that axis — the regraft candidates of one pruned
// subtree are independent read-only queries against the frozen tree, so
// they fan out over a likelihood.Pool, each worker scoring through its own
// context-bound Views. The other half (wavefront traversal execution)
// lives in the likelihood package and reuses the same pool.

// minParallelCandidates is the smallest candidate count worth fanning out;
// below it the per-fanout overhead (goroutine spawn, the WaitGroup barrier,
// the meter merge) exceeds the win: a candidate is two or three kernel
// calls on vectors that are already there.
const minParallelCandidates = 4

// candScore is one scored insertion candidate. ok marks candidates that
// carry a usable score (detached edges are skipped, mirroring the serial
// loop's continue); hit marks scores replayed from the topology memo
// instead of a fresh likelihood evaluation.
type candScore struct {
	z, ll float64
	ok    bool
	hit   bool
	err   error
}

// topoProbe records the candidate's topology hash between the probe and the
// post-scoring memo insert (only misses that scored fresh are inserted).
type topoProbe struct {
	hash phylotree.TopoHash
	ok   bool
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

	cands  []*phylotree.Node
	scores []candScore

	// Topology memoization (Options.NoTopoMemo opts out): hasher and
	// per-prune scope compute each candidate's would-be topology hash
	// incrementally, memo replays scores for topologies already measured.
	// probes is the per-candidate hash buffer, reused like cands/scores.
	memo   *TopoMemo
	hasher *phylotree.TopoHasher
	pscope *phylotree.PruneScope
	probes []topoProbe

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
	sharedHits       *obs.Counter
	epochGauge       *obs.Gauge
	busyPeak         *obs.Gauge

	topoHits      *obs.Counter
	topoMisses    *obs.Counter
	topoRequeries *obs.Counter
	topoEvictions *obs.Counter
	topoHitRate   *obs.Gauge
	topoDrift     *obs.Gauge
	topoConfDrift *obs.Gauge
}

// newSearchCtx builds the per-search state from the options: one private
// view table for a serial search; for opt.Workers > 1 a worker pool (also
// installed as the engine's wavefront executor) whose per-worker view tables
// read through one shared store; and metric handles when opt.Metrics is set.
func newSearchCtx(eng *likelihood.Engine, opt Options) *searchCtx {
	sc := &searchCtx{traceRound: opt.Trace}
	if !opt.NoTopoMemo {
		sc.memo = NewTopoMemo(opt.TopoMemoCap)
		sc.hasher = phylotree.NewTopoHasher(eng.Pat.NumTaxa)
		sc.pscope = phylotree.NewPruneScope(sc.hasher)
	}
	if opt.Metrics != nil {
		sc.candidatesScored = opt.Metrics.Counter("search.candidates_scored")
		sc.parallelRounds = opt.Metrics.Counter("search.parallel_rounds")
		if sc.memo != nil {
			sc.topoHits = opt.Metrics.Counter("cache.topo_hits")
			sc.topoMisses = opt.Metrics.Counter("cache.topo_misses")
			sc.topoRequeries = opt.Metrics.Counter("cache.topo_requeries")
			sc.topoEvictions = opt.Metrics.Counter("cache.topo_evictions")
			sc.topoHitRate = opt.Metrics.Gauge("cache.topo_hit_rate")
			sc.topoDrift = opt.Metrics.Gauge("cache.topo_drift_max")
			sc.topoConfDrift = opt.Metrics.Gauge("cache.topo_confirmed_drift_max")
		}
	}
	if opt.Workers <= 1 {
		sc.serialViews = eng.NewViews()
		return sc
	}
	sc.pool = eng.NewPool(opt.Workers)
	eng.UsePool(sc.pool)
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

// close detaches the pool and the shared vector store from the engine; the
// search installed them, so the search removes them before handing the
// engine back to the caller.
func (sc *searchCtx) close(eng *likelihood.Engine) {
	sc.publishCacheMetrics()
	if sc.pool != nil {
		eng.UseSharedCache(nil)
		eng.UsePool(nil)
		if sc.candidatesScored != nil {
			sc.pool.OnOccupancy = nil
		}
	}
}

// publishCacheMetrics republishes the shared-store totals and the pool's
// occupancy high-water mark; called at every round boundary and at close.
func (sc *searchCtx) publishCacheMetrics() {
	if sc.sharedHits != nil {
		sc.sharedHits.Store(sc.shared.Hits())
		sc.epochGauge.Set(float64(sc.shared.Epoch()))
	}
	if sc.pool != nil && sc.busyPeak != nil {
		sc.busyPeak.Set(float64(sc.pool.PeakBusy()))
	}
	if sc.memo != nil && sc.topoHits != nil {
		hits, misses, requeries, evictions := sc.memo.Stats()
		sc.topoHits.Store(hits)
		sc.topoMisses.Store(misses)
		sc.topoRequeries.Store(requeries)
		sc.topoEvictions.Store(evictions)
		if tot := hits + misses + requeries; tot > 0 {
			sc.topoHitRate.Set(float64(hits) / float64(tot))
		}
		drift, _ := sc.memo.MaxDrift()
		sc.topoDrift.Set(drift)
		sc.topoConfDrift.Set(sc.memo.ConfirmedDrift())
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
//
// With the topology memo on, every candidate is first priced by the
// canonical hash of its would-be topology (O(1) per candidate after the
// per-prune PruneScope pass): once the memo is armed, hits more than the
// safety margin below limit — the acceptance threshold current+eps — replay
// the memoized score and skip the evaluation entirely; everything else
// scores fresh and inserts into the memo afterwards. Probes run against the
// memo as it stood before this fan-out (inserts are post-loop in both the
// serial and pooled paths), so hit patterns — and scores — are
// schedule-independent.
func (sc *searchCtx) scoreInsertions(eng *likelihood.Engine, cands []*phylotree.Node, ps *phylotree.PrunedSubtree, z0, limit float64) ([]candScore, error) {
	sub := ps.P
	memoOn := sc.memo != nil && !sc.memo.Disabled()
	if memoOn {
		if err := sc.pscope.Reset(ps); err != nil {
			memoOn = false // fall back to fresh scoring for this prune
		}
	}
	if sc.candidatesScored != nil && !memoOn {
		sc.candidatesScored.Add(uint64(len(cands)))
	}
	csp := sc.traceRound.Start("candidates", "search")
	defer csp.End()
	if cap(sc.scores) < len(cands) {
		sc.scores = make([]candScore, len(cands))
		sc.probes = make([]topoProbe, len(cands))
	}
	scores := sc.scores[:len(cands)]
	probes := sc.probes[:len(cands)]
	for i := range scores {
		scores[i] = candScore{}
		probes[i] = topoProbe{}
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
			if memoOn && sc.probeCandidate(cand, i, scores, probes, z0, limit) {
				continue
			}
			z, ll, err := sc.serialViews.InsertionScore(cand, sub, z0)
			if err != nil {
				sc.serialViews.Release()
				return nil, err
			}
			scores[i] = candScore{z: z, ll: ll, ok: true}
		}
		sc.serialViews.Release()
		sc.insertMisses(scores, probes, memoOn)
		return scores, nil
	}

	sc.roundParallel = true
	sc.pool.Run(len(cands), func(w, i int) {
		cand := cands[i]
		if cand.Back == nil {
			return
		}
		if memoOn && sc.probeCandidate(cand, i, scores, probes, z0, limit) {
			return
		}
		z, ll, err := sc.views[w].InsertionScore(cand, sub, z0)
		scores[i] = candScore{z: z, ll: ll, ok: err == nil, err: err}
	})
	for i := range scores {
		if scores[i].err != nil {
			return nil, scores[i].err
		}
	}
	sc.insertMisses(scores, probes, memoOn)
	return scores, nil
}

// probeCandidate prices one candidate against the topology memo, filling
// scores[i] with the replayed score on a hit. It records the hash in
// probes[i] on a miss or requery so insertMisses can memoize the fresh
// score. Safe for concurrent calls from pool workers: the prune scope is
// read-only between Reset and the next prune, the memo probe takes a read
// lock and its arming/disable state only changes in Insert — which the
// search serializes between fan-outs — and each invocation touches only its
// own index.
func (sc *searchCtx) probeCandidate(cand *phylotree.Node, i int, scores []candScore, probes []topoProbe, z0, limit float64) bool {
	h, ok := sc.pscope.CandidateHash(cand)
	if !ok {
		return false
	}
	if est, hit := sc.memo.Probe(h, limit); hit {
		scores[i] = candScore{z: z0, ll: est, ok: true, hit: true}
		return true
	}
	probes[i] = topoProbe{hash: h, ok: true}
	return false
}

// insertMisses memoizes the freshly scored candidates of one fan-out and
// counts them into search.candidates_scored (memo hits are exactly the
// evaluations the search did not run, so they are not counted). It runs on
// the search goroutine after the fan-out joined: probes never race inserts,
// which keeps the per-prune hit pattern deterministic, and every refresh of
// a known topology feeds the memo's drift calibration.
func (sc *searchCtx) insertMisses(scores []candScore, probes []topoProbe, memoOn bool) {
	if !memoOn {
		return
	}
	fresh := 0
	for i := range scores {
		if !scores[i].ok || scores[i].hit {
			continue
		}
		fresh++
		if probes[i].ok {
			sc.memo.Insert(probes[i].hash, scores[i].ll)
		}
	}
	if sc.candidatesScored != nil {
		sc.candidatesScored.Add(uint64(fresh))
	}
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
