package likelihood

import (
	"math"
	"math/rand"
	"testing"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/nstate"
	"raxmlcell/internal/phylotree"
	"raxmlcell/internal/seqsim"
)

// nstateOracle builds the generic n-state evaluator — no kernel, cache or
// traversal code in common with the engine — for a simulated alignment under
// the model it was simulated with.
func nstateOracle(t *testing.T, a *alignment.Alignment) *nstate.Evaluator {
	t.Helper()
	gen := seqsim.DefaultModel()
	exch := make([][]float64, 4)
	for i := range exch {
		exch[i] = make([]float64, 4)
	}
	for k, ij := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}} {
		exch[ij[0]][ij[1]], exch[ij[1]][ij[0]] = gen.GTR.Rates[k], gen.GTR.Rates[k]
	}
	nm, err := nstate.NewReversible(exch, gen.GTR.Freqs[:], gen.Alpha, len(gen.Cats))
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, s := range a.Seqs {
		rows = append(rows, s.String())
	}
	ev, err := nstate.NewEvaluator(nstate.DNA(), nm, a.Names(), rows)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// TestPrescoreMatchesCombineThenEvaluate pins what a prescore is: for every
// candidate edge of a sample of prunes — subtrees that are one tip, candidate
// edges that end in one, entry lengths on both clamps — Engine.Prescore against
// one Across per prune returns the bits Engine.Evaluate returns across the
// subtree's branch once the subtree really is regrafted there at the entry
// length (a combine of the insertion node, then an evaluate), counts as one
// newview and one evaluate with one logarithm per pattern, and agrees with the
// independent n-state evaluator to 1e-9. On both backends, the CAT layout,
// and an alignment of two blocks at GOMAXPROCS 1 and 2, where a helper runs
// blocks on its own scratch and the bits must not notice.
func TestPrescoreMatchesCombineThenEvaluate(t *testing.T) {
	cases := []struct {
		name    string
		backend string
		cat     bool
		npat    int // 0: a simulated alignment, with the n-state oracle
		procs   []int
	}{
		{name: "scalar", backend: "scalar", procs: []int{1}},
		{name: "batched", backend: "batched", procs: []int{1}},
		{name: "cat", backend: "batched", cat: true, npat: 120, procs: []int{1}},
		{name: "two blocks", backend: "batched", npat: rangeBlock + 88, procs: []int{1, 2}},
		{name: "two blocks scalar cat", backend: "scalar", cat: true, npat: rangeBlock + 88, procs: []int{1, 2}},
	}
	for _, tc := range cases {
		var first []float64 // every prescore at the first GOMAXPROCS, in order
		for _, procs := range tc.procs {
			restore := setProcs(procs)
			rng := rand.New(rand.NewSource(2301))
			var pat *alignment.Patterns
			var oracle *nstate.Evaluator
			m := seqsim.DefaultModel()
			if tc.npat == 0 {
				a, _, err := seqsim.Generate(seqsim.Params{Taxa: 11, Sites: 200, MeanBranch: 0.1, Alpha: 0.8}, m, rng)
				if err != nil {
					t.Fatal(err)
				}
				pat, oracle = alignment.Compress(a), nstateOracle(t, a)
			} else {
				pat = patternsOfCount(t, rng, 11, tc.npat)
				m = randomModel(t, rng, 4)
			}
			if tc.cat {
				m = catModelFor(t, rng, pat)
			}
			tr := randomTreeFor(t, rng, pat)
			eng, err := NewEngine(pat, m, Config{Backend: tc.backend})
			if err != nil {
				t.Fatal(err)
			}
			eng.AttachTree(tr)

			var got []float64
			tipSubtrees, tipCands := 0, 0
			for k, p := range internalRecords(tr) {
				if tc.npat > rangeBlock && k%5 != 0 {
					continue // a sample: every vector here is five times 42_SC's
				}
				if p.Back == nil {
					continue
				}
				ps, err := tr.Prune(p)
				if err != nil {
					continue
				}
				zSub := ps.P.Z
				z0 := [...]float64{zSub, phylotree.MinBranchLength, 0.3, phylotree.MaxBranchLength}[k%4]
				if ps.P.Back.IsTip() {
					tipSubtrees++
				}
				mustVector(t, eng, ps.Q)
				mustVector(t, eng, ps.R)
				mustVector(t, eng, ps.P.Back)
				cands := append(radiusEdges(ps.Q, 4), radiusEdges(ps.R, 4)...)
				var across Across
				if err := eng.CarryAcross(&across, ps.P, z0); err != nil {
					t.Fatal(err)
				}
				pre := make([]float64, len(cands))
				for i, cand := range cands {
					before := eng.Meter
					if pre[i], err = eng.Prescore(cand, &across); err != nil {
						t.Fatal(err)
					}
					d := eng.Meter
					if d.NewviewCalls-before.NewviewCalls < 1 || d.EvaluateCalls != before.EvaluateCalls+1 ||
						d.MakenewzCalls != before.MakenewzCalls || d.Logs != before.Logs+uint64(pat.NumPatterns()) {
						t.Fatalf("%s: a prescore moved the meter from %v to %v", tc.name, before.String(), d.String())
					}
					if cand.IsTip() || cand.Back.IsTip() {
						tipCands++
					}
				}
				got = append(got, pre...)

				// The same insertions for real, one at a time.
				for i, cand := range cands {
					if err := tr.Regraft(ps, cand); err != nil {
						t.Fatal(err)
					}
					ps.P.SetZ(z0)
					want, err := eng.Evaluate(ps.P)
					if err != nil {
						t.Fatal(err)
					}
					if pre[i] != want {
						t.Errorf("%s, GOMAXPROCS %d, prune %d candidate %d at z0=%g: prescore %.17g, regrafted tree evaluates to %.17g",
							tc.name, procs, k, i, z0, pre[i], want)
					}
					if oracle != nil {
						ref, err := oracle.LogL(tr)
						if err != nil {
							t.Fatal(err)
						}
						if math.Abs(pre[i]-ref) > 1e-9*math.Abs(ref) {
							t.Errorf("%s, prune %d candidate %d: prescore %.10f, n-state evaluator %.10f", tc.name, k, i, pre[i], ref)
						}
					}
					if _, err := tr.Prune(ps.P); err != nil {
						t.Fatal(err)
					}
				}
				// Back to the tree as it was: a branch left on a clamp would
				// be a candidate edge whose halves Regraft clamps and the
				// lazy scores do not.
				ps.P.SetZ(zSub)
				if err := tr.Undo(ps); err != nil {
					t.Fatal(err)
				}
			}
			restore()
			if len(got) == 0 || tipSubtrees == 0 || tipCands == 0 {
				t.Fatalf("%s lost its coverage: %d prescores, %d one-tip subtrees, %d candidate edges at a tip", tc.name, len(got), tipSubtrees, tipCands)
			}
			if first == nil {
				first = got
				continue
			}
			for i := range got {
				if got[i] != first[i] {
					t.Fatalf("%s: prescore %d is %.17g at GOMAXPROCS %d, %.17g at %d", tc.name, i, got[i], procs, first[i], tc.procs[0])
				}
			}
		}
	}
}
