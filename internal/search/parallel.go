package search

import (
	"fmt"
	"math"
	"slices"

	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/obs"
	"raxmlcell/internal/phylotree"
)

// shortListLen is how many candidates of a prune stage 2 solves: the k
// highest prescores. A rank, not a logL margin: it has no unit to tune to an
// alignment's size. DESIGN.md "What a Newton solve and an alpha fit cost",
// rung 7, has the table it was sized on.
const shortListLen = 3

// policy picks the rules a search runs by. Its zero value is the search as
// it runs; each field switches one rule back to the behaviour it is judged
// against, the twin of a no-worse gate (TestTwinGates). Only in-package tests
// set it, through Options.policy.
type policy struct {
	solveAll       bool // the short list is every candidate: exhaustive scoring
	fullWalk       bool // no likelihood cutoff: the walk covers the whole radius
	uncutList      bool // a prescore that lost the cutoff may still enter the short list
	exactSmoothing bool // Run's smoothing solves every branch to newtonGainTol (OptimizeAll's does not)
}

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

// searchCtx carries the state of one search's candidate scoring: reusable
// candidate/score buffers (hoisted out of the SPR hot loop, so that a prune
// allocates only its PrunedSubtree — TestPruneScoringAllocs), the round's
// likelihood cutoff and live metric handles. The vectors a candidate reads
// are the engine's store's, which the next edit of the tree (the Undo or
// Regraft that ends the prune) prunes to those facing the edited branches.
type searchCtx struct {
	cands   []*phylotree.Node
	parents []int // per candidate, the index of the one it hangs off in the radius walk (-1 at the prune)
	scores  []candScore
	list    []int // the short list of the prune being scored, as indices into cands
	across  likelihood.Across

	// cutoff is the round's likelihood cutoff (RAxML's lhCutoff), +Inf until
	// a round sets one; lossSum and losses are the round's losses so far,
	// which set the next round's.
	cutoff  float64
	lossSum float64
	losses  int

	pol policy

	// traceRound is the current round's trace context (set by Run before
	// each round, round-labeled); candidate-batch spans record through it.
	// The zero Ctx before the first round is a valid no-op.
	traceRound obs.Ctx

	candidatesScored *obs.Counter
	candidatesSolved *obs.Counter
	rangeBlocks      *obs.Counter
	rangeAdopted     *obs.Counter
}

// newSearchCtx builds the per-search state, with metric handles when
// opt.Metrics is set.
func newSearchCtx(eng *likelihood.Engine, opt Options) *searchCtx {
	sc := &searchCtx{traceRound: opt.Trace, cutoff: math.Inf(1), pol: opt.policy}
	if opt.Metrics != nil {
		sc.candidatesScored = opt.Metrics.Counter("search.candidates_scored")
		sc.candidatesSolved = opt.Metrics.Counter("search.candidates_solved")
		sc.rangeBlocks = opt.Metrics.Counter("kernel.range_blocks")
		sc.rangeAdopted = opt.Metrics.Counter("kernel.range_blocks_adopted")
	}
	return sc
}

// publishRangeBlocks stores the range executor's two block counters, which
// are the process's and so the same whichever search stores them. Called at
// every round boundary and when the search ends.
func (sc *searchCtx) publishRangeBlocks() {
	if sc.rangeBlocks != nil {
		run, adopted := likelihood.RangeBlocks()
		sc.rangeBlocks.Store(run)
		sc.rangeAdopted.Store(adopted)
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
	if sc.pol.fullWalk {
		sc.cutoff = math.Inf(1)
	}
	sc.lossSum, sc.losses = 0, 0
}

// scoreInsertions scores the regraft of the subtree pruned by ps (entry branch
// length z0) into the candidate edges of a radius walk (parents as
// phylotree.RadiusEdgesInto gives them), in the two stages RAxML has, and
// returns sc.scores, indexed by candidate. A candidate reads the two vectors
// at its edge from the engine's store: the one facing the prune point, and
// the one facing away from it (computed once, shared with the candidates
// beyond it). Stage 1 prescores, in candidate order, the
// candidates the walk reaches: the virtual insertion node and the
// log-likelihood across the subtree's branch at z0, nothing optimised. A
// prescore at least sc.cutoff below baseline, the current tree's
// log-likelihood, keeps every candidate below it out of the walk and itself
// out of stage 2. Then the short list is drawn — the shortListLen highest
// prescores among those that lost less than the cutoff, ties to the lower
// index — and stage 2 solves the subtree's branch length by Newton-Raphson for
// those alone, none if every prescore lost the cutoff; a prune with no more
// candidates than shortListLen skips stage 1 and solves them all. The first
// error in candidate order wins.
func (sc *searchCtx) scoreInsertions(eng *likelihood.Engine, cands []*phylotree.Node, parents []int, ps *phylotree.PrunedSubtree, z0, baseline float64) ([]candScore, error) {
	sub := ps.P
	csp := sc.traceRound.Start("candidates", "search")
	defer csp.End()
	if cap(sc.scores) < len(cands) {
		sc.scores = make([]candScore, len(cands))
		sc.list = make([]int, len(cands))
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

	if attached > shortListLen {
		if err := eng.CarryAcross(&sc.across, sub, z0); err != nil {
			return nil, err
		}
		sc.prescoreWalk(cands, parents, baseline, func(i int) {
			scores[i].prescored(eng.Prescore(cands[i], &sc.across))
		})
		if !sc.pol.solveAll {
			sc.list = shortList(scores, sc.list[:0], baseline, sc.listCutoff())
		}
	}
	for _, i := range sc.list {
		scores[i].solved(eng.InsertionScore(cands[i], sub, z0))
	}
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

// prescoreWalk is stage 1: in one pass in candidate order, it prescores each
// attached candidate whose parent in the walk was prescored without error and
// lost less than the cutoff (every one at the prune). A radius walk lists a
// candidate after its parent, so the parent's score is always there to read.
// It then adds, in candidate order, how far each error-free prescore fell
// below baseline to the round's losses (RAxML's lhAVG and lhDEC).
func (sc *searchCtx) prescoreWalk(cands []*phylotree.Node, parents []int, baseline float64, prescore func(i int)) {
	for i, p := range parents {
		if cands[i].Back == nil {
			continue
		}
		if p < 0 || (sc.scores[p].scored && sc.scores[p].err == nil && baseline-sc.scores[p].pre < sc.cutoff) {
			prescore(i)
		}
	}
	for i := range cands {
		if s := &sc.scores[i]; s.scored && s.err == nil && s.pre < baseline {
			sc.lossSum += baseline - s.pre
			sc.losses++
		}
	}
}

// listCutoff is the loss that keeps a prescore off the short list: the
// round's cutoff, +Inf under policy.uncutList.
func (sc *searchCtx) listCutoff() float64 {
	if sc.pol.uncutList {
		return math.Inf(1)
	}
	return sc.cutoff
}

// shortList appends to list the indices of the shortListLen highest
// prescores among the scored candidates without an error that lost less than
// cutoff against baseline (prescoreWalk's test: a NaN keeps nothing), ties to the
// lower index, in candidate order.
func shortList(scores []candScore, list []int, baseline, cutoff float64) []int {
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
