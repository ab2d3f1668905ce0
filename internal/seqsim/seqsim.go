// Package seqsim simulates sequence evolution along a phylogenetic tree
// under a GTR+Γ model. It is the substitute for the paper's 42_SC input
// file (42 organisms x 1167 nucleotides, not distributed with the paper):
// the generated alignments have the same dimensions, tree-like signal, and
// on the order of the same number of distinct site patterns, which is what
// determines the likelihood kernels' loop trip counts.
package seqsim

import (
	"fmt"
	"math/rand"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/bio"
	"raxmlcell/internal/model"
	"raxmlcell/internal/phylotree"
)

// Params configures a simulation.
type Params struct {
	Taxa       int     // number of tips
	Sites      int     // alignment length
	MeanBranch float64 // mean branch length (expected substitutions/site)
	// Alpha is not read: the site rates come from the categories of the
	// model passed to Generate or Evolve. The field stays because callers
	// name it.
	Alpha       float64
	GapFraction float64 // fraction of characters replaced by gaps
	// InvariantFraction is the proportion of sites that never mutate —
	// real conserved alignments (like the paper's rRNA-style 42_SC data)
	// are dominated by such columns, which is what pushes the distinct
	// pattern count down to ~250 for 1167 sites over 42 taxa.
	InvariantFraction float64
}

// Params42SC mirrors the paper's benchmark input dimensions and pattern
// density (42 taxa x 1167 nt, on the order of 250 distinct patterns).
func Params42SC() Params {
	return Params{Taxa: 42, Sites: 1167, MeanBranch: 0.02, Alpha: 0.8, InvariantFraction: 0.60}
}

// Generate draws a random topology with exponential branch lengths, then
// evolves an alignment along it. It returns the alignment and the true tree.
func Generate(p Params, m *model.Model, rng *rand.Rand) (*alignment.Alignment, *phylotree.Tree, error) {
	if p.Taxa < 3 {
		return nil, nil, fmt.Errorf("seqsim: need >= 3 taxa, got %d", p.Taxa)
	}
	if p.Sites <= 0 {
		return nil, nil, fmt.Errorf("seqsim: need > 0 sites, got %d", p.Sites)
	}
	if p.MeanBranch <= 0 {
		p.MeanBranch = 0.1
	}
	names := make([]string, p.Taxa)
	for i := range names {
		names[i] = fmt.Sprintf("taxon%03d", i)
	}
	tr, err := phylotree.RandomTopology(names, rng)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range tr.Edges() {
		e.SetZ(p.MeanBranch * rng.ExpFloat64())
	}
	a, err := Evolve(tr, m, p, rng)
	if err != nil {
		return nil, nil, err
	}
	return a, tr, nil
}

// Evolve simulates p.Sites characters down the given tree under model m.
// Site rates are drawn from m's discrete Gamma categories (uniformly, since
// the categories are equiprobable).
func Evolve(tr *phylotree.Tree, m *model.Model, p Params, rng *rand.Rand) (*alignment.Alignment, error) {
	if m == nil {
		return nil, fmt.Errorf("seqsim: nil model")
	}
	if tr.NumTips() < 3 {
		return nil, fmt.Errorf("seqsim: need >= 3 taxa, got %d", tr.NumTips())
	}
	if p.Sites <= 0 {
		return nil, fmt.Errorf("seqsim: need > 0 sites, got %d", p.Sites)
	}
	nt, nc := tr.NumTips(), m.NumCats()
	codes := make([][]byte, nt)
	for i := range codes {
		codes[i] = make([]byte, p.Sites)
	}

	// The branches in the order a recursive walk draws them: the root ring's
	// three subtrees in Ring() order, each in preorder. states[0] is the root
	// state, states[i+1] the state at the far end of branch i, from[i] the
	// index in states of its near end, and tip t's state is
	// states[tipState[t]]. cdf[c*nEdges+i] holds branch i's transition
	// matrix in rate category c, as sample's thresholds.
	nEdges := 2*nt - 3
	cdf := make([][4][4]float64, nc*nEdges)
	from := make([]int, 0, nEdges)
	tipState := make([]int, nt)
	var flatten func(e *phylotree.Node, near int)
	flatten = func(e *phylotree.Node, near int) {
		i := len(from)
		from = append(from, near)
		for c := range nc {
			var pm [4][4]float64
			m.GTR.TransitionMatrix(e.Z, m.Cats[c], &pm)
			cdf[c*nEdges+i] = cumulative(pm)
		}
		if child := e.Back; child.IsTip() {
			tipState[child.Index] = i + 1
		} else {
			for _, r := range child.Ring() {
				if r != child {
					flatten(r, i+1)
				}
			}
		}
	}
	for _, r := range tr.Tips[0].Back.Ring() { // the internal ring adjacent to tip 0
		flatten(r, 0)
	}
	freqs := cumulative([4][4]float64{m.GTR.Freqs})[0]
	states := make([]int, nEdges+1)

	for site := 0; site < p.Sites; site++ {
		cat := rng.Intn(nc)
		states[0] = sample(rng.Float64(), &freqs)
		if p.InvariantFraction > 0 && rng.Float64() < p.InvariantFraction {
			// Conserved column: every taxon inherits the root state.
			for i := range codes {
				codes[i][site] = bio.BitA << states[0]
			}
			continue
		}
		pc := cdf[cat*nEdges : (cat+1)*nEdges]
		for i, f := range from {
			states[i+1] = sample(rng.Float64(), &pc[i][states[f]])
		}
		for t, i := range tipState {
			codes[t][site] = bio.BitA << states[i]
		}
	}

	if p.GapFraction > 0 {
		for i := range codes {
			for j := range codes[i] {
				if rng.Float64() < p.GapFraction {
					codes[i][j] = bio.Gap
				}
			}
		}
	}

	seqs := make([]*bio.Sequence, nt)
	for i := range seqs {
		seqs[i] = &bio.Sequence{Name: tr.Taxa[i], Codes: codes[i]}
	}
	return alignment.New(seqs)
}

// cumulative turns each row of pm into sample's thresholds: the entries
// summed from the left, each sum raised to the largest before it. A sum
// below an earlier one (a probability that rounded below zero) can never be
// the first that a draw falls below, so raising it changes no draw's state,
// and rising thresholds let sample count instead of search.
func cumulative(pm [4][4]float64) [4][4]float64 {
	for r := range pm {
		cum, top := 0.0, 0.0
		for c := range pm[r] {
			cum += pm[r][c]
			top = max(top, cum)
			pm[r][c] = top
		}
	}
	return pm
}

// sample returns the first state whose threshold exceeds x, and the last
// state when rounding leaves the row's sum at or below x.
func sample(x float64, cdf *[4]float64) int {
	s := 0 // three comparisons the compiler turns into conditional moves
	if x >= cdf[0] {
		s++
	}
	if x >= cdf[1] {
		s++
	}
	if x >= cdf[2] {
		s++
	}
	return s
}

// DefaultModel builds a moderately asymmetric GTR+Γ4 model suitable for
// generating benchmark data (fixed parameters, no randomness).
func DefaultModel() *model.Model {
	g, err := model.NewGTR(
		[6]float64{1.4, 3.9, 0.9, 1.2, 4.2, 1.0},
		[4]float64{0.31, 0.19, 0.22, 0.28},
	)
	if err != nil {
		panic("seqsim: default GTR invalid: " + err.Error())
	}
	m, err := model.NewModel(g, 0.8, 4)
	if err != nil {
		panic("seqsim: default model invalid: " + err.Error())
	}
	return m
}
