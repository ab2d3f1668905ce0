package main

import (
	"errors"
	"fmt"
	"math"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/phylotree"
)

const (
	// evalTol is how far a reported log-likelihood may be from the
	// independent re-evaluation of the returned tree, relative to it. The
	// tree travels as Newick with six decimals per branch length.
	evalTol = 1e-6
	// accuracyTol is the stated accuracy of a search: its log-likelihood may
	// fall short of the optimised true tree's by this share, and accuracyShare
	// of a run's searches must reach it. The accuracy is stated for the run
	// because the search is a heuristic: of 324 probe searches from random
	// trees at the search20 size, 3 ended 4% short in a local optimum and
	// every other one within 1.3e-3, most above the reference. A change that
	// makes searches stop early moves the share; one unlucky start does not
	// fail a run.
	accuracyTol   = 2e-3
	accuracyShare = 0.9
)

// check decides whether one operation's answer is correct: the score is the
// returned tree's, and a campaign is complete.
func (w workload) check(ins []input, r opResult) error {
	if r.Err != "" {
		return errors.New(r.Err)
	}
	in := ins[r.Input]
	ll, err := reevaluate(in.pat, r.Newick, r.Alpha)
	if err != nil {
		return err
	}
	if math.Abs(ll-r.LogL) > evalTol*math.Abs(ll) {
		return fmt.Errorf("reported logL %.6f, the returned tree re-evaluates to %.6f", r.LogL, ll)
	}
	if w.kind != campaign {
		return nil
	}
	done := 0
	for _, j := range r.Jobs {
		if j.Err == "" {
			done++
		}
	}
	if done < inferences+bootstraps {
		return fmt.Errorf("%d of %d jobs succeeded", done, inferences+bootstraps)
	}
	if r.Consensus == "" {
		return errors.New("no consensus tree")
	}
	if r.Supports == 0 || r.SupportMin < 0 || r.SupportMax > 1 {
		return fmt.Errorf("%d support values in [%g, %g], want some, all in [0, 1]", r.Supports, r.SupportMin, r.SupportMax)
	}
	return nil
}

// shortfall is how far below the reference a search ended, as a share of the
// reference; it is negative for a search that ended above it.
func shortfall(in input, r opResult) float64 {
	return (in.refLogL - r.LogL) / math.Abs(in.refLogL)
}

func parseAligned(pat *alignment.Patterns, nwk string) (*phylotree.Tree, error) {
	tr, err := phylotree.ParseNewick(nwk)
	if err != nil {
		return nil, err
	}
	return tr, tr.AlignTaxa(pat.Names)
}

// reevaluate scores a returned tree on a fresh scalar engine built from the
// parent's own copy of the alignment.
func reevaluate(pat *alignment.Patterns, nwk string, alpha float64) (float64, error) {
	tr, err := parseAligned(pat, nwk)
	if err != nil {
		return 0, fmt.Errorf("returned tree: %w", err)
	}
	eng, err := newScalarEngine(pat, alpha)
	if err != nil {
		return 0, err
	}
	return eng.Evaluate(tr.Tips[0])
}

// agree checks that the pooled and the serial search of one operation found
// the same tree with the same score.
func agree(pat *alignment.Patterns, pool, serial opResult) error {
	if pool.Err != "" || serial.Err != "" {
		return fmt.Errorf("pool error %q, serial error %q", pool.Err, serial.Err)
	}
	if math.Abs(pool.LogL-serial.LogL) > evalTol*math.Abs(serial.LogL) {
		return fmt.Errorf("pool logL %.6f, serial logL %.6f", pool.LogL, serial.LogL)
	}
	a, err := parseAligned(pat, pool.Newick)
	if err != nil {
		return err
	}
	b, err := parseAligned(pat, serial.Newick)
	if err != nil {
		return err
	}
	rf, err := phylotree.RobinsonFoulds(a, b)
	if err != nil {
		return err
	}
	if rf != 0 {
		return fmt.Errorf("Robinson-Foulds distance %d between the two trees", rf)
	}
	return nil
}
