package search

import (
	"fmt"
	"math"
	"runtime"
	"slices"

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
// both stages of scoring them fan out over a likelihood.Pool, each worker
// scoring through its own context-bound Views.

// minParallelCandidates is the smallest candidate count worth fanning out;
// below it the per-fanout overhead (goroutine spawn, the WaitGroup barrier,
// the meter merge) exceeds the win. A stage-1 candidate is one kernel pass
// on vectors that are already there, about a third of what a candidate cost
// when each was solved, so the value was measured again: a 2-worker search
// of 20 x 250 reads 99, 101, 108, 104 and 105 ms at thresholds 2, 3, 4, 6
// and 8 (medians of seven alternating runs, each spread over +-10 ms) — no
// difference the host can resolve, so 4 stays. At 4 the three solves of
// stage 2 run where they are; 2 and 3, which fan them out, buy nothing.
const minParallelCandidates = 4

// shortListLen is how many candidates of a prune stage 2 solves: the k
// highest prescores. A rank, not a logL margin: it has no unit to tune to an
// alignment's size. DESIGN.md "What a Newton solve and an alpha fit cost",
// rung 7, has the table it was sized on.
const shortListLen = 3

// solveAll makes the short list every candidate — exhaustive scoring, what
// the short list is judged against. Only TestShortListNoWorseThanExhaustive
// and its helpers set it.
var solveAll bool

// fullWalk switches the likelihood cutoff off — the full radius walk the
// cutoff is judged against. Only tests that compare the two set it.
var fullWalk bool

// uncutList lets a prescore that lost the cutoff into the short list — the
// list the cutoff's second use is judged against. Only
// TestShortListCutoffNoWorse sets it.
var uncutList bool

// NonFiniteError is a candidate insertion whose log-likelihood came out NaN
// or infinite; the search stops on it instead of ranking it.
type NonFiniteError struct {
	Stage string // "prescore" or "solve"
	LogL  float64
}

func (e *NonFiniteError) Error() string {
	return fmt.Sprintf("non-finite %s log-likelihood %v", e.Stage, e.LogL)
}

// nonFinite returns err, or a *NonFiniteError if there is none and ll is not finite.
func nonFinite(stage string, ll float64, err error) error {
	if err == nil && !(math.Abs(ll) <= math.MaxFloat64) {
		return &NonFiniteError{Stage: stage, LogL: ll}
	}
	return err
}

// candScore is one insertion candidate's scores. scored marks candidates
// the scoring reached (detached edges and those below a cut are not); pre
// is the stage-1 log-likelihood at the entry branch length, NaN in a prune
// too small to need ranking; ok marks the candidates stage 2 solved (the
// short list, never a prescore that lost the cutoff), whose optimised branch
// length and log-likelihood are z and ll.
type candScore struct {
	pre    float64
	z, ll  float64
	scored bool
	ok     bool
	err    error
}

// prescored records stage 1's score; a non-finite one becomes the error.
func (s *candScore) prescored(pre float64, err error) {
	s.pre, s.err, s.scored = pre, nonFinite("prescore", pre, err), true
}

// solved records stage 2's score; a non-finite one becomes the error.
func (s *candScore) solved(z, ll float64, err error) {
	s.err = nonFinite("solve", ll, err)
	s.z, s.ll, s.ok, s.scored = z, ll, s.err == nil, true
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

	cands   []*phylotree.Node
	parents []int // per candidate, the index of the one it hangs off in the radius walk (-1 at the prune)
	scores  []candScore
	list    []int // the short list of the prune being scored, as indices into cands
	wave    []int // the candidates stage 1 prescores next
	across  likelihood.Across

	// cutoff is the round's likelihood cutoff (RAxML's lhCutoff), +Inf until
	// a round sets one; lossSum and losses are the round's losses so far,
	// which set the next round's.
	cutoff  float64
	lossSum float64
	losses  int

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
	candidatesSolved *obs.Counter
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
	sc := &searchCtx{traceRound: opt.Trace, cutoff: math.Inf(1)}
	if opt.Metrics != nil {
		sc.candidatesScored = opt.Metrics.Counter("search.candidates_scored")
		sc.candidatesSolved = opt.Metrics.Counter("search.candidates_solved")
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

// startRound sets the round's cutoff by RAxML's rule: the previous round's
// mean loss, or |logL|/1000 of the round's starting tree when that round
// recorded no loss or there was none.
func (sc *searchCtx) startRound(logL float64) {
	sc.cutoff = math.Abs(logL) / 1000
	if sc.losses > 0 {
		sc.cutoff = sc.lossSum / float64(sc.losses)
	}
	if fullWalk {
		sc.cutoff = math.Inf(1)
	}
	sc.lossSum, sc.losses = 0, 0
}

// scoreInsertions scores the regraft of the subtree pruned by ps (entry
// branch length z0) into the candidate edges of a radius walk (parents as
// phylotree.RadiusEdgesInto gives them; nil for at most shortListLen
// candidates, as in NNI), in the two stages RAxML has, and returns sc.scores,
// indexed by candidate. It first orients the engine's slots toward the prune
// point, so that a candidate reads the vector facing away from it at its edge
// (computed once, shared with the candidates beyond it) and slots nobody
// writes. Stage 1 prescores, in waves down the walk, the candidates it
// reaches: the virtual insertion node and the log-likelihood across the
// subtree's branch at z0, nothing optimised. A prescore at least sc.cutoff
// below baseline, the current tree's log-likelihood, keeps every candidate
// below it out of the walk and itself out of stage 2. Behind the last wave the
// short list is drawn — the shortListLen highest prescores among those that
// lost less than the cutoff, ties to the lower index — and stage 2 solves the
// subtree's branch length by Newton-Raphson for those alone, none if every
// prescore lost the cutoff; a prune with no more candidates than
// shortListLen skips stage 1 and solves them all. With a pool each
// wave and stage fans out, every worker scoring through its own context's
// Views over the shared store. Either way the same candidates are reached,
// the same vectors computed, the same list drawn and the same solves run, so
// the round's losses and the chosen move are independent of scheduling. The
// first error in candidate order wins.
func (sc *searchCtx) scoreInsertions(eng *likelihood.Engine, cands []*phylotree.Node, parents []int, ps *phylotree.PrunedSubtree, z0, baseline float64) ([]candScore, error) {
	sub := ps.P
	csp := sc.traceRound.Start("candidates", "search")
	defer csp.End()
	if cap(sc.scores) < len(cands) {
		sc.scores = make([]candScore, len(cands))
		sc.list = make([]int, len(cands))
		sc.wave = make([]int, len(cands))
	}
	scores, list := sc.scores[:len(cands)], sc.list[:len(cands)]
	attached := 0
	for i, cand := range cands {
		scores[i] = candScore{pre: math.NaN()}
		if cand.Back != nil {
			list[attached] = i
			attached++
		}
	}
	sc.list = list[:attached]

	// Orient every slot toward the prune point: Prune left valid exactly the
	// slots that already face the joined branch, so this recomputes only the
	// mis-oriented ones, and every vector a candidate needs that does not
	// contain the prune point is then a read of a slot nobody writes.
	eng.NewView(ps.Q)
	eng.NewView(ps.R)
	eng.NewView(sub.Back)

	if attached > shortListLen {
		if err := sc.serialViews.CarryAcross(&sc.across, sub, z0); err != nil {
			return nil, err
		}
		sc.prescoreWalk(cands, parents, baseline, func(v *likelihood.Views, i int) {
			scores[i].prescored(v.Prescore(cands[i], &sc.across))
		})
		if !solveAll {
			sc.list = shortList(scores, sc.list[:0], baseline, sc.cutoff)
		}
	}
	sc.fan(sc.list, func(v *likelihood.Views, i int) {
		scores[i].solved(v.InsertionScore(cands[i], sub, z0))
	})
	sc.serialViews.Release()
	scored := 0
	for i := range scores {
		if scores[i].err != nil {
			return nil, scores[i].err
		}
		if scores[i].scored {
			scored++
		}
	}
	if sc.candidatesScored != nil {
		sc.candidatesScored.Add(uint64(scored))
		sc.candidatesSolved.Add(uint64(len(sc.list)))
	}
	return scores, nil
}

// prescoreWalk is stage 1: it prescores the candidates of a radius walk in
// waves through sc.fan, wave d the depth-d candidates whose parent the cutoff
// kept, then adds, in candidate order, how far each error-free prescore fell
// below baseline to the round's losses (RAxML's lhAVG and lhDEC).
func (sc *searchCtx) prescoreWalk(cands []*phylotree.Node, parents []int, baseline float64, prescore func(v *likelihood.Views, i int)) {
	for wave := sc.nextWave(cands, parents, baseline); len(wave) > 0; wave = sc.nextWave(cands, parents, baseline) {
		sc.fan(wave, prescore)
	}
	for i := range cands {
		if s := &sc.scores[i]; s.scored && s.err == nil && s.pre < baseline {
			sc.lossSum += baseline - s.pre
			sc.losses++
		}
	}
}

// nextWave returns, in candidate order, the attached candidates not yet
// prescored whose parent in the walk was prescored without error and lost
// less than the cutoff (first, those at the prune). It reads only scores
// sc.fan has finished, so any worker count reaches the same candidates.
func (sc *searchCtx) nextWave(cands []*phylotree.Node, parents []int, baseline float64) []int {
	wave := sc.wave[:0]
	for i, p := range parents {
		if sc.scores[i].scored || cands[i].Back == nil {
			continue
		}
		if p < 0 || (sc.scores[p].scored && sc.scores[p].err == nil && baseline-sc.scores[p].pre < sc.cutoff) {
			wave = append(wave, i)
		}
	}
	return wave
}

// fan runs score for every candidate index in list: over the pool when there
// is one and the list is long enough to pay for a fan-out, each worker
// through its own Views, and through the primary context's Views in list
// order otherwise.
func (sc *searchCtx) fan(list []int, score func(v *likelihood.Views, i int)) {
	if sc.pool == nil || len(list) < minParallelCandidates {
		for _, i := range list {
			score(sc.serialViews, i)
		}
		return
	}
	sc.roundParallel = true
	sc.pool.Run(len(list), func(w, t int) { score(sc.views[w], list[t]) })
}

// shortList appends to list the indices of the shortListLen highest
// prescores among the scored candidates without an error that lost less than
// cutoff against baseline (nextWave's test: a NaN keeps nothing), ties to the
// lower index, in candidate order.
func shortList(scores []candScore, list []int, baseline, cutoff float64) []int {
	if uncutList {
		cutoff = math.Inf(1)
	}
	for i := range scores {
		if !scores[i].scored || scores[i].err != nil || !(baseline-scores[i].pre < cutoff) {
			continue
		}
		// list is kept by descending prescore; an equal later one goes behind.
		j := len(list)
		for j > 0 && scores[list[j-1]].pre < scores[i].pre {
			j--
		}
		if j == shortListLen {
			continue
		}
		if len(list) < shortListLen {
			list = append(list, 0)
		}
		copy(list[j+1:], list[j:])
		list[j] = i
	}
	slices.Sort(list)
	return list
}

// bestCandidate is the SPR winner reduction: the highest log-likelihood
// among the solved candidates, ties broken by lowest candidate index (the
// strictly-greater comparison in index order — byte-identical to the
// serial loop's choice). Returns index -1 when nothing was solved.
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
