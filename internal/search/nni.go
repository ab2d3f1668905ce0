package search

import (
	"fmt"

	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/phylotree"
)

// nniRound performs one sweep of nearest-neighbor interchanges: for every
// internal edge (u, v) there are two alternative topologies obtained by
// swapping one subtree of u with one subtree of v. Each alternative is
// scored with the lazy machinery (prune the swapped subtree, score its
// re-insertion) — accepting the better alternative when it improves the
// current likelihood by more than eps. NNI is the cheap, small-step
// complement to SPR: RAxML applies SPR with radius 1-2 equivalently during
// its fast phases. Scoring goes through sc like the SPR round; the
// acceptance chain is replayed in candidate order (bestNNICandidate), so
// scoring every candidate first picks the interchanges a loop that accepts
// as it scores would.
func nniRound(eng *likelihood.Engine, tr *phylotree.Tree, sc *searchCtx, baseline, eps float64) (float64, int, error) {
	current := baseline
	accepted := 0
	// Failures break out with a stage tag and are wrapped once after the
	// loop: fmt.Errorf boxes its operands and the sweep is hot (see the
	// hotpathalloc analyzer).
	var stage string
	var stageErr error
	for _, e := range tr.InternalEdges() {
		u, v := e, e.Back
		if u.IsTip() || v.IsTip() {
			continue
		}
		// The two NNI alternatives around edge (u,v): swap u.Next's subtree
		// with each of v's two subtrees. Implemented as prune/regraft of
		// u.Next's subtree onto the two branches on v's side.
		p := u.Next // ring record whose Back is the subtree to move
		if p.Back == nil {
			continue
		}
		ps, err := tr.Prune(p)
		if err != nil {
			continue
		}
		zSub := ps.P.Z

		// After pruning, the joined edge runs Q--R. The NNI targets are the
		// two branches hanging off v (now reachable from the junction).
		sc.cands = appendNNITargets(sc.cands[:0], v, ps.P)

		scores, err := sc.scoreInsertions(eng, sc.cands, nil, ps, zSub, current)
		if err != nil {
			stage, stageErr = "trial", err
			break
		}
		bestIdx, bestZ, bestLL := bestNNICandidate(scores, zSub, current, eps)

		if bestIdx >= 0 {
			if err := tr.Regraft(ps, sc.cands[bestIdx]); err != nil {
				stage, stageErr = "accept", err
				break
			}
			ps.P.SetZ(bestZ)
			eng.Invalidate(ps.P) // direct SetZ bypasses the tree's hooks
			if bestLL, err = solveAround(eng, ps.P); err != nil {
				stage, stageErr = "optimizing the swapped branches", err
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
		return 0, 0, fmt.Errorf("search: NNI %s: %w", stage, stageErr)
	}
	return current, accepted, nil
}

// NNISearch hill-climbs with nearest-neighbor interchanges only — the
// cheap local search usable as a fast first phase or a comparison baseline
// against the SPR search. It runs serially; NNISearchOpts accepts the full
// option set (metrics).
func NNISearch(eng *likelihood.Engine, tr *phylotree.Tree, maxRounds int, eps float64) (float64, int, error) {
	return NNISearchOpts(eng, tr, Options{MaxRounds: maxRounds, Epsilon: eps})
}

// NNISearchOpts is NNISearch with explicit Options: MaxRounds, Epsilon,
// Metrics apply; the SPR-specific fields are ignored.
func NNISearchOpts(eng *likelihood.Engine, tr *phylotree.Tree, opt Options) (float64, int, error) {
	if opt.MaxRounds <= 0 {
		opt.MaxRounds = 10
	}
	if opt.Epsilon <= 0 {
		opt.Epsilon = 0.01
	}
	eps := opt.Epsilon
	// Let the engine observe topology mutations, so Prune/Regraft/Undo drop
	// the cached partial vectors they dirty.
	eng.AttachTree(tr)
	sc := newSearchCtx(eng, opt)
	defer sc.publishRangeBlocks()
	ll, err := SmoothBranches(eng, tr, 4, eps)
	if err != nil {
		return 0, 0, err
	}
	moves := 0
	for round := 0; round < opt.MaxRounds; round++ {
		newLL, accepted, err := nniRound(eng, tr, sc, ll, eps)
		if err != nil {
			return 0, 0, err
		}
		moves += accepted
		newLL, err = SmoothBranches(eng, tr, 2, eps)
		if err != nil {
			return 0, 0, err
		}
		if accepted == 0 || newLL-ll < eps {
			if newLL > ll {
				ll = newLL
			}
			break
		}
		ll = newLL
	}
	return ll, moves, nil
}
