package search

import (
	"context"
	"fmt"
	"math"

	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/obs"
	"raxmlcell/internal/phylotree"
)

// Progress is one point on a search's log-likelihood trajectory, reported
// through Options.OnProgress as the hill-climb advances.
type Progress struct {
	Phase string  // "start" (initial smoothing), "round" (after an SPR round), "final"
	Round int     // SPR rounds completed (0 at the start point)
	Moves int     // accepted SPR moves so far
	LogL  float64 // current log-likelihood
	Alpha float64 // current Gamma shape
}

// Options configures the hill-climbing search.
type Options struct {
	Radius       int     // SPR rearrangement radius (RAxML's rearrangement setting)
	MaxRounds    int     // maximum SPR improvement rounds
	SmoothPasses int     // branch smoothing passes between rounds
	Epsilon      float64 // minimum log-likelihood gain to keep iterating
	AlphaOpt     bool    // re-fit the Gamma shape between rounds
	ModelOpt     bool    // fit the GTR exchangeabilities on the final tree

	// OnProgress, when non-nil, receives the per-step log-likelihood
	// trajectory of the search (the series behind live campaign metrics
	// and Figure-3-style scheduler reasoning). It runs on the searching
	// goroutine, so it must be cheap and must not mutate the tree/engine.
	OnProgress func(Progress)

	// Workers has no effect on how a search runs: inside one search the only
	// parallel axis is the likelihood package's range executor, which needs
	// no option. The field stays because the benchmark sets it; ROADMAP item
	// 10(a) removes it.
	Workers int

	// Metrics, when non-nil, receives the live search series: the
	// search.candidates_scored / search.candidates_solved counters, the
	// kernel.range_blocks / kernel.range_blocks_adopted counters of the range
	// executor and the search.round_ms latency histogram.
	Metrics *obs.Registry

	// Trace is the wall-clock span context this search records into
	// (smoothing passes, alpha refits, SPR rounds, candidate batches),
	// usually pre-labeled with the job by the mw layer. The zero Ctx
	// disables tracing.
	Trace obs.Ctx

	// policy is the zero value but in the twins of TestTwinGates.
	policy policy
}

// DefaultOptions mirrors the paper's search regime at small scale.
func DefaultOptions() Options {
	return Options{Radius: 5, MaxRounds: 10, SmoothPasses: 4, Epsilon: 0.01, AlphaOpt: true}
}

func (o *Options) fillDefaults() {
	d := DefaultOptions()
	if o.Radius <= 0 {
		o.Radius = d.Radius
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = d.MaxRounds
	}
	if o.SmoothPasses <= 0 {
		o.SmoothPasses = d.SmoothPasses
	}
	if o.Epsilon <= 0 {
		o.Epsilon = d.Epsilon
	}
}

// pruneCandidates enumerates every internal ring record whose removal is a
// legal SPR prune (its Back side is the subtree that moves).
func pruneCandidates(tr *phylotree.Tree) []*phylotree.Node {
	var out []*phylotree.Node
	for _, e := range tr.Edges() {
		if !e.IsTip() {
			out = append(out, e)
		}
		if !e.Back.IsTip() {
			out = append(out, e.Back)
		}
	}
	return out
}

// halted is the search's stop check: one non-blocking read of ctx's signal.
func halted(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return context.Cause(ctx)
	default:
		return nil
	}
}

// sprRound performs one pass of lazy SPR over all prune candidates: each
// subtree is pruned, trial-inserted into the edges within the rearrangement
// radius of the detachment point that the round's likelihood cutoff leaves
// in the walk (scored as it stands, and for the short list of the best
// insertions with the subtree's own branch optimized, RAxML's "lazy"
// evaluation), and kept at the best position if that improves the current
// likelihood by more than eps.
// It returns the updated log-likelihood and the number of accepted moves,
// or ctx's cause once ctx is done. Candidate scoring goes through sc, with
// the winner reduced deterministically in candidate order.
func sprRound(ctx context.Context, eng *likelihood.Engine, tr *phylotree.Tree, sc *searchCtx, radius int, baseline, eps float64) (float64, int, error) {
	current := baseline
	accepted := 0
	sc.startRound(baseline)
	// Error wrapping happens after the loop: fmt.Errorf boxes its operands,
	// and the round loop is hot (TestPruneScoringAllocs), so failures break
	// out with a stage tag and format once on the cold path.
	var stage string
	var stageErr error
	for _, p := range pruneCandidates(tr) {
		if err := halted(ctx); err != nil {
			return 0, 0, err
		}
		if p.Back == nil || p.Next == nil {
			continue // record was detached by a concurrent accepted move
		}
		ps, err := tr.Prune(p)
		if err != nil {
			continue
		}
		zSub := ps.P.Z

		sc.cands, sc.parents = phylotree.RadiusEdgesInto(sc.cands[:0], sc.parents[:0], ps.Q, radius)
		sc.cands, sc.parents = phylotree.RadiusEdgesInto(sc.cands, sc.parents, ps.R, radius)

		// Lazy SPR: score the candidates the cutoff reaches from directed
		// vectors of the (fixed) pruned tree; only the short list's subtree
		// branch is optimized, and only the short list can win. A prune whose
		// prescores all lost the cutoff solves nothing and is undone.
		scores, err := sc.scoreInsertions(eng, sc.cands, sc.parents, ps, zSub, current)
		if err != nil {
			stage, stageErr = "trial insertion", err
			break
		}
		bestIdx, bestZ, bestLL := bestCandidate(scores, zSub)

		if bestIdx >= 0 && bestLL > current+eps {
			// The subtree takes its branch's winning length along: set
			// before Regraft, the length edit walks only the detached
			// subtree, and Regraft's own edits invalidate the rest.
			ps.P.SetZ(bestZ)
			if err := tr.Regraft(ps, sc.cands[bestIdx]); err != nil {
				stage, stageErr = "accepting move", err
				break
			}
			// Locally optimize the three branches around the insertion. They
			// are attached and never tip–tip: an error here is a bug.
			if bestLL, err = solveAround(eng, ps.P); err != nil {
				stage, stageErr = "optimizing the inserted branches", err
				break
			}
			current = bestLL
			accepted++
		} else {
			if err := tr.Undo(ps); err != nil {
				stage, stageErr = "undo", err
				break
			}
		}
	}
	sc.publishRangeBlocks()
	if stageErr != nil {
		return 0, 0, fmt.Errorf("search: %s: %w", stage, stageErr)
	}
	return current, accepted, nil
}

// solveAround solves the three branches at the ring of p after an accepted
// move and returns the log-likelihood of the last solve; the first two are
// solved for their length only, since nothing reads their value.
func solveAround(eng *likelihood.Engine, p *phylotree.Node) (float64, error) {
	for _, b := range [...]*phylotree.Node{p, p.Next} {
		if _, err := eng.MakeNewzTo(b, 0); err != nil {
			return 0, err
		}
	}
	_, ll, err := eng.MakeNewz(p.Next.Next)
	return ll, err
}

// Result is the outcome of one inference.
type Result struct {
	Tree   *phylotree.Tree
	LogL   float64
	Alpha  float64
	Rates  *[6]float64 // fitted GTR exchangeabilities; nil unless Options.ModelOpt
	Rounds int
	Moves  int // accepted SPR moves
}

// Run executes the full hill-climbing search on the given starting tree
// (mutated in place): smooth branches, fit alpha, then SPR rounds until no
// round gains more than Epsilon, with a final smoothing.
func Run(eng *likelihood.Engine, start *phylotree.Tree, opt Options) (*Result, error) {
	return RunContext(context.Background(), eng, start, opt)
}

// RunContext is Run until ctx is done: it reads ctx's signal before every
// prune, smoothing solve and Brent evaluation, never inside a kernel, and then
// returns context.Cause(ctx), leaving the tree where the search stopped.
func RunContext(ctx context.Context, eng *likelihood.Engine, start *phylotree.Tree, opt Options) (*Result, error) {
	opt.fillDefaults()
	if err := start.Validate(); err != nil {
		return nil, fmt.Errorf("search: starting tree: %w", err)
	}
	// Let the engine observe topology mutations, so Prune/Regraft/Undo drop
	// the cached partial vectors they dirty.
	eng.AttachTree(start)

	sc := newSearchCtx(eng, opt)
	defer sc.publishRangeBlocks()

	tctx := opt.Trace
	var roundHist *obs.Histogram
	if opt.Metrics != nil {
		roundHist = opt.Metrics.Histogram("search.round_ms", obs.MsBuckets)
	}

	ssp := tctx.Start("smooth", "search")
	ll, err := smoothBranches(ctx, eng, start, opt.SmoothPasses, opt.Epsilon, opt.policy)
	ssp.End()
	if err != nil {
		return nil, err
	}
	alpha := eng.Mod.Alpha
	if opt.AlphaOpt {
		asp := tctx.Start("alpha-opt", "search")
		alpha, ll, err = optimizeAlpha(ctx, eng, start, 0.02, 50, 1e-2)
		asp.End()
		if err != nil {
			return nil, err
		}
	}

	if opt.OnProgress != nil {
		opt.OnProgress(Progress{Phase: "start", LogL: ll, Alpha: alpha})
	}

	res := &Result{Tree: start, Alpha: alpha}
	for round := 0; round < opt.MaxRounds; round++ {
		res.Rounds = round + 1
		// The round's events — including the candidate-batch spans recorded
		// inside scoreInsertions — carry the round label; the round span
		// itself covers SPR + smoothing + alpha refit and feeds the
		// search.round_ms histogram.
		rctx := tctx.WithRound(round + 1)
		sc.traceRound = rctx
		rsp := rctx.Start("round", "search")
		newLL, moves, err := sprRound(ctx, eng, start, sc, opt.Radius, ll, opt.Epsilon)
		if err != nil {
			rsp.End()
			return nil, err
		}
		res.Moves += moves
		newLL, err = smoothBranches(ctx, eng, start, opt.SmoothPasses, opt.Epsilon, opt.policy)
		if err != nil {
			rsp.End()
			return nil, err
		}
		if opt.AlphaOpt && moves > 0 {
			alpha, newLL, err = optimizeAlpha(ctx, eng, start, 0.02, 50, 1e-2)
			if err != nil {
				rsp.End()
				return nil, err
			}
			res.Alpha = alpha
		}
		rsp.EndObserve(roundHist)
		if opt.OnProgress != nil {
			opt.OnProgress(Progress{Phase: "round", Round: round + 1, Moves: res.Moves, LogL: newLL, Alpha: alpha})
		}
		if newLL-ll < opt.Epsilon {
			ll = math.Max(ll, newLL)
			break
		}
		ll = newLL
	}
	if opt.ModelOpt {
		fitted, err := OptimizeAll(ctx, eng, start, opt.Epsilon)
		if err != nil {
			return nil, err
		}
		if fitted > ll {
			ll = fitted
		}
		res.Alpha = eng.Mod.Alpha
		rates := eng.Mod.GTR.Rates
		res.Rates = &rates
	}
	res.LogL = ll
	if opt.OnProgress != nil {
		opt.OnProgress(Progress{Phase: "final", Round: res.Rounds, Moves: res.Moves, LogL: ll, Alpha: res.Alpha})
	}
	return res, nil
}
