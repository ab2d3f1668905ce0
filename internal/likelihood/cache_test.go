package likelihood

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"raxmlcell/internal/likelihood/coldref"
	"raxmlcell/internal/phylotree"
)

// internalRecords collects every directed internal ring record of the tree:
// the full domain of Engine.vector.
func internalRecords(tr *phylotree.Tree) []*phylotree.Node {
	var out []*phylotree.Node
	for _, e := range tr.Edges() {
		for _, r := range [...]*phylotree.Node{e, e.Back} {
			if !r.IsTip() {
				ring := r.Ring()
				out = append(out, ring[:]...)
			}
		}
	}
	// Ring() may repeat records reachable from both edge ends; dedup.
	seen := make(map[*phylotree.Node]bool, len(out))
	uniq := out[:0]
	for _, r := range out {
		if !seen[r] {
			seen[r] = true
			uniq = append(uniq, r)
		}
	}
	return uniq
}

// expandVec writes v out with one row per pattern, through its class map.
func expandVec(e *Engine, v vec) ([]float64, []int32) {
	stride := e.ncat * ns
	lv, sc := make([]float64, e.npat*stride), make([]int32, e.npat)
	for pat := range sc {
		r := v.row(pat)
		copy(lv[pat*stride:], v.lv[r*stride:(r+1)*stride])
		sc[pat] = v.sc[r]
	}
	return lv, sc
}

// assertVectorsEqual requires exact (bitwise) equality of two directed
// vectors and their scale counts, pattern by pattern: one may be a slot of
// repeat-class rows, the other a vector of one row per pattern.
func assertVectorsEqual(t *testing.T, stage string, e *Engine, got, want vec) {
	t.Helper()
	gotLv, gotSc := expandVec(e, got)
	wantLv, wantSc := expandVec(e, want)
	for i := range gotLv {
		if gotLv[i] != wantLv[i] {
			t.Fatalf("%s: lv[%d] = %.17g, want %.17g (bit-identical)", stage, i, gotLv[i], wantLv[i])
		}
	}
	for i := range gotSc {
		if gotSc[i] != wantSc[i] {
			t.Fatalf("%s: scale[%d] = %d, want %d", stage, i, gotSc[i], wantSc[i])
		}
	}
}

// lazyScoreAudit does what the search does to one prune candidate — prune p
// through the tree's hooks, orient the engine's slots toward the prune
// point, score every insertion edge within radius 3 — through its memo, and
// requires every prescore and every solved score to be bit-identical to the one a fresh engine (nothing cached, nothing to read through) computes for
// the same candidate of the same prune on a clone of the tree. It returns the
// pruned subtree with the candidates and the index and branch length of the
// best one, for the caller to undo or accept.
func lazyScoreAudit(t *testing.T, stage string, eng *Engine, tr *phylotree.Tree, p *phylotree.Node) (ps *phylotree.PrunedSubtree, cands []*phylotree.Node, best int, bestZ float64) {
	t.Helper()
	// A clone enumerates its edges in the same order, which locates p on it.
	edges, cl := tr.Edges(), tr.Clone()
	var cp *phylotree.Node
	for i, e := range cl.Edges() {
		switch p {
		case edges[i]:
			cp = e
		case edges[i].Back:
			cp = e.Back
		}
	}
	if cp == nil {
		t.Fatalf("%s: prune record is not on an edge of the tree", stage)
	}
	ps, err := tr.Prune(p)
	if err != nil {
		t.Fatal(err)
	}
	cps, err := cl.Prune(cp)
	if err != nil {
		t.Fatal(err)
	}
	eng.NewView(ps.Q)
	eng.NewView(ps.R)
	eng.NewView(ps.P.Back)
	cands = append(radiusEdges(ps.Q, 3), radiusEdges(ps.R, 3)...)
	ccands := append(radiusEdges(cps.Q, 3), radiusEdges(cps.R, 3)...)
	if len(cands) != len(ccands) {
		t.Fatalf("%s: %d candidates, %d on the clone", stage, len(cands), len(ccands))
	}
	fresh, err := NewEngine(eng.Pat, eng.Mod, eng.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	z0, bestLL := ps.P.Z, math.Inf(-1)
	var across, freshAcross Across
	if err := eng.CarryAcross(&across, ps.P, z0); err != nil {
		t.Fatal(err)
	}
	if err := fresh.CarryAcross(&freshAcross, cps.P, z0); err != nil {
		t.Fatal(err)
	}
	best = -1
	for i, cand := range cands {
		wantPre, err := fresh.Prescore(ccands[i], &freshAcross)
		if err != nil {
			t.Fatal(err)
		}
		wantZ, wantLL, err := fresh.InsertionScore(ccands[i], cps.P, z0)
		if err != nil {
			t.Fatal(err)
		}
		pre, err := eng.Prescore(cand, &across)
		if err != nil {
			t.Fatal(err)
		}
		if pre != wantPre {
			t.Fatalf("%s: candidate %d prescores %.17g, fresh engine %.17g", stage, i, pre, wantPre)
		}
		z, ll, err := eng.InsertionScore(cand, ps.P, z0)
		if err != nil {
			t.Fatal(err)
		}
		if z != wantZ || ll != wantLL {
			t.Fatalf("%s: candidate %d scores (%.17g, %.17g), fresh engine (%.17g, %.17g)",
				stage, i, z, ll, wantZ, wantLL)
		}
		if wantLL > bestLL {
			best, bestZ, bestLL = i, wantZ, wantLL
		}
	}
	return ps, cands, best, bestZ
}

// FuzzEpochCacheEquivalence drives random interleavings of branch edits,
// topology moves, lazy-SPR scoring rounds, model and weight swaps, full
// invalidations, edits of a tree the engine is not attached to and reads
// over a random small tree, asserting after every operation that a sample of
// the vectors vector serves (from the engine's slots where they hold the
// orientation, from its memo otherwise) is bit-identical to what a fresh engine
// computes on a clone of the tree, that the class map of every valid slot is the one a fresh
// engine numbers, and that the engine's own slots answer Evaluate and
// MakeNewz bit-identically to a fresh engine on a clone of the tree.
func FuzzEpochCacheEquivalence(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 0, 1, 2, 3})
	f.Add(int64(7), []byte{1, 1, 1, 2, 0, 3, 2, 4, 1, 0})
	f.Add(int64(42), []byte{2, 0, 5, 0, 2, 1, 3})
	f.Add(int64(9), []byte{6, 1, 6, 2, 6, 0, 6, 4, 6})
	f.Add(int64(11), []byte{7, 1, 7, 4, 2, 7, 6, 7})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		rng := rand.New(rand.NewSource(seed))
		nTaxa := 6 + int(rng.Int63()%7)
		pat := randomPatterns(t, rng, nTaxa, 24)
		m := randomModel(t, rng, 4)
		tr := randomTreeFor(t, rng, pat)
		eng, err := NewEngine(pat, m, Config{})
		if err != nil {
			t.Fatal(err)
		}
		eng.AttachTree(tr)

		audit := func(stage string) {
			// A fresh engine has nothing cached, and a clone enumerates its
			// edges in the same order. Every directed record is one end of
			// an edge.
			fresh, err := NewEngine(eng.Pat, eng.Mod, eng.Cfg)
			if err != nil {
				t.Fatal(err)
			}
			edges, cloned := tr.Edges(), tr.Clone().Edges()
			for k := 0; k < 4; k++ {
				i := rng.Intn(len(edges))
				r, cr := edges[i], cloned[i]
				if rng.Intn(2) == 0 {
					r, cr = r.Back, cr.Back
				}
				if r.IsTip() {
					continue
				}
				got, err := eng.vector(r)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.vector(cr)
				if err != nil {
					t.Fatal(err)
				}
				assertVectorsEqual(t, stage, eng, got, want)
			}

			// The engine's own slots.
			// The class map of every valid slot is the one a fresh engine
			// numbers for the same record.
			for i := range edges {
				for _, rr := range [...][2]*phylotree.Node{{edges[i], cloned[i]}, {edges[i].Back, cloned[i].Back}} {
					if rr[0].IsTip() || eng.orient[rr[0].Index] != rr[0] {
						continue
					}
					fresh.NewView(rr[1])
					got, want := eng.classes(rr[0]), fresh.classes(rr[1])
					if got.rows != want.rows || !slices.Equal(got.cls, want.cls) {
						t.Fatalf("%s: the slot of node %d holds %d classes, a fresh engine numbers %d, or another map",
							stage, rr[0].Index, got.rows, want.rows)
					}
				}
			}
			i := rng.Intn(len(edges))
			got, err := eng.Evaluate(edges[i])
			if err != nil {
				t.Fatal(err)
			}
			want, err := coldref.Evaluate(fresh, cloned[i])
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s: Evaluate at edge %d = %.17g, fresh engine %.17g", stage, i, got, want)
			}
			i = rng.Intn(len(edges))
			gotZ, gotLL, err := eng.MakeNewz(edges[i])
			if err != nil {
				t.Fatal(err)
			}
			wantZ, wantLL, err := coldref.MakeNewz(fresh, cloned[i])
			if err != nil {
				t.Fatal(err)
			}
			if gotZ != wantZ || gotLL != wantLL {
				t.Fatalf("%s: MakeNewz at edge %d = (%.17g, %.17g), fresh engine (%.17g, %.17g)",
					stage, i, gotZ, gotLL, wantZ, wantLL)
			}
		}

		audit("initial")
		for _, op := range ops {
			switch op % 8 {
			case 0: // a branch length set by hand, heard through the hook
				edges := tr.Edges()
				e := edges[rng.Intn(len(edges))]
				e.SetZ(0.01 + rng.Float64()*0.5)
			case 1: // SPR move (or undo) through the tree's own hooks
				var cands []*phylotree.Node
				for _, e := range tr.Edges() {
					if !e.IsTip() {
						cands = append(cands, e)
					}
					if !e.Back.IsTip() {
						cands = append(cands, e.Back)
					}
				}
				if len(cands) == 0 {
					continue
				}
				ps, err := tr.Prune(cands[rng.Intn(len(cands))])
				if err != nil {
					continue
				}
				targets := radiusEdges(ps.Q, 3)
				targets = append(targets, radiusEdges(ps.R, 3)...)
				if len(targets) == 0 || rng.Intn(3) == 0 {
					if err := tr.Undo(ps); err != nil {
						t.Fatal(err)
					}
				} else if err := tr.Regraft(ps, targets[rng.Intn(len(targets))]); err != nil {
					t.Fatal(err)
				}
			case 2: // Newton branch optimization: its length edit goes through the hook
				edges := tr.Edges()
				if _, _, err := eng.MakeNewz(edges[rng.Intn(len(edges))]); err != nil {
					t.Fatal(err)
				}
			case 3: // drop everything
				eng.InvalidateAll()
			case 4: // model swap: every vector depends on the rates
				m2, err := eng.Mod.WithAlpha(0.1 + rng.Float64()*2)
				if err != nil {
					t.Fatal(err)
				}
				if err := eng.SetModel(m2); err != nil {
					t.Fatal(err)
				}
			case 5: // weight swap: vectors stay valid, reductions change
				w := make([]int, pat.NumPatterns())
				for i := range w {
					w[i] = rng.Intn(4)
				}
				if err := eng.SetWeights(w); err != nil {
					t.Fatal(err)
				}
			case 6: // what a search does: score a prune and undo it, score the
				// prune next to it and accept its best insertion, score a prune
				// inside the ring just inserted and undo it
				var prunable []*phylotree.Node
				for _, e := range tr.Edges() {
					for _, r := range [...]*phylotree.Node{e, e.Back} {
						if !r.IsTip() {
							prunable = append(prunable, r)
						}
					}
				}
				ps, _, _, _ := lazyScoreAudit(t, "first prune", eng, tr, prunable[rng.Intn(len(prunable))])
				if err := tr.Undo(ps); err != nil {
					t.Fatal(err)
				}
				next := ps.Q
				if next.IsTip() {
					next = ps.R
				}
				if next.IsTip() {
					continue // a 3-taxon remainder: no neighbouring ring to prune at
				}
				ps, cands, best, bestZ := lazyScoreAudit(t, "prune next to the previous one", eng, tr, next.Next)
				if best < 0 {
					if err := tr.Undo(ps); err != nil {
						t.Fatal(err)
					}
					continue
				}
				ps.P.SetZ(bestZ) // the accepted move's length, as the search sets it
				if err := tr.Regraft(ps, cands[best]); err != nil {
					t.Fatal(err)
				}
				for _, b := range [...]*phylotree.Node{ps.P, ps.P.Next, ps.P.Next.Next} {
					if _, _, err := eng.MakeNewz(b); err != nil {
						t.Fatal(err)
					}
				}
				ps, _, _, _ = lazyScoreAudit(t, "prune after an accepted move", eng, tr, ps.P.Next)
				if err := tr.Undo(ps); err != nil {
					t.Fatal(err)
				}
			case 7: // a tree the engine is not attached to: its topology edits
				// reach the engine only through InvalidateAll
				cl := tr.Clone()
				if _, err := eng.Evaluate(cl.Tips[0]); err != nil {
					t.Fatal(err)
				}
				var inner []*phylotree.Node
				for _, e := range cl.Edges() {
					if !e.Back.IsTip() {
						inner = append(inner, e.Back)
					}
				}
				ps, err := cl.Prune(inner[rng.Intn(len(inner))])
				if err != nil {
					continue
				}
				targets := append(radiusEdges(ps.Q, 3), radiusEdges(ps.R, 3)...)
				if len(targets) == 0 {
					err = cl.Undo(ps)
				} else {
					err = cl.Regraft(ps, targets[rng.Intn(len(targets))])
				}
				if err != nil {
					t.Fatal(err)
				}
				eng.InvalidateAll()
				fresh, err := NewEngine(eng.Pat, eng.Mod, eng.Cfg)
				if err != nil {
					t.Fatal(err)
				}
				edges, cloned := cl.Edges(), cl.Clone().Edges()
				i := rng.Intn(len(edges))
				got, err := eng.Evaluate(edges[i])
				if err != nil {
					t.Fatal(err)
				}
				want, err := coldref.Evaluate(fresh, cloned[i])
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("unattached edit: Evaluate at edge %d = %.17g, fresh engine %.17g", i, got, want)
				}
			}
			audit("after op")
		}
	})
}
