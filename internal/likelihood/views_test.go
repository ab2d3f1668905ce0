package likelihood

import (
	"math"
	"math/rand"
	"testing"

	"raxmlcell/internal/likelihood/coldref"
	"raxmlcell/internal/phylotree"
)

func TestViewsVectorIndependentOfOrder(t *testing.T) {
	// One producer fills every record: the vectors two engines compute
	// reading the records in opposite orders — so that one finds a record's
	// children stored where the other computes them on the way — are
	// bit-identical.
	rng := rand.New(rand.NewSource(201))
	pat := randomPatterns(t, rng, 10, 60)
	m := randomModel(t, rng, 4)
	tr := randomTreeFor(t, rng, pat)
	fwd, err := NewEngine(pat, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rev, err := NewEngine(pat, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	recs := internalRecords(tr)
	for i := range recs {
		mustVector(t, fwd, recs[i])
		mustVector(t, rev, recs[len(recs)-1-i])
	}
	for _, r := range recs {
		v := mustVector(t, fwd, r)
		if v.sc == nil {
			t.Fatal("nil scale vector for internal record")
		}
		assertVectorsEqual(t, "reverse order", fwd, v, mustVector(t, rev, r))
	}
	// Tip records yield the zero vec.
	tv, err := fwd.vector(tr.Tips[3])
	if err != nil || tv.lv != nil {
		t.Errorf("tip record: %v, %v", tv.lv, err)
	}
}

func TestViewsMemoization(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	pat := randomPatterns(t, rng, 12, 40)
	m := randomModel(t, rng, 2)
	tr := randomTreeFor(t, rng, pat)
	eng, err := NewEngine(pat, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.vector(tr.Tips[0].Back); err != nil {
		t.Fatal(err)
	}
	calls := eng.Meter.NewviewCalls
	// Re-requesting the same and overlapping vectors must not recompute.
	if _, err := eng.vector(tr.Tips[0].Back); err != nil {
		t.Fatal(err)
	}
	if eng.Meter.NewviewCalls != calls {
		t.Error("stored vector recomputed")
	}
	// Computing every directed vector costs at most 3*(n-2) newviews total.
	readAll := func() {
		for _, e := range tr.Edges() {
			if !e.IsTip() {
				if _, err := eng.vector(e); err != nil {
					t.Fatal(err)
				}
			}
			if !e.Back.IsTip() {
				if _, err := eng.vector(e.Back); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	readAll()
	if max := uint64(3 * (12 - 2)); eng.Meter.NewviewCalls > max {
		t.Errorf("views computation used %d newviews, bound %d", eng.Meter.NewviewCalls, max)
	}
	// After InvalidateAll every vector is recomputed.
	eng.InvalidateAll()
	calls = eng.Meter.NewviewCalls
	readAll()
	if eng.Meter.NewviewCalls == calls {
		t.Error("after InvalidateAll: no vector recomputed")
	}
}

// insertionScoreExhaustive reproduces the pre-lazy trial: physically
// regraft, run MakeNewz on the subtree branch from a full recomputation,
// read the likelihood, and undo. It is the ground truth the lazy path must
// match.
func insertionScoreExhaustive(t *testing.T, eng *Engine, tr *phylotree.Tree, ps *phylotree.PrunedSubtree, cand *phylotree.Node, z0 float64) (float64, float64) {
	t.Helper()
	if err := tr.Regraft(ps, cand); err != nil {
		t.Fatal(err)
	}
	ps.P.SetZ(z0)
	z, ll, err := coldref.MakeNewz(eng, ps.P)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Prune(ps.P); err != nil {
		t.Fatal(err)
	}
	ps.P.SetZ(z0)
	return z, ll
}

func TestInsertionScoreMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	pat := randomPatterns(t, rng, 12, 80)
	m := randomModel(t, rng, 4)
	tr := randomTreeFor(t, rng, pat)
	eng, err := NewEngine(pat, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The store is trusted, so the engine sees every edit.
	eng.AttachTree(tr)

	p := tr.Tips[4].Back
	ps, err := tr.Prune(p)
	if err != nil {
		t.Fatal(err)
	}
	z0 := ps.P.Z

	cands := radiusEdges(ps.Q, 4)
	cands = append(cands, radiusEdges(ps.R, 4)...)
	if len(cands) < 3 {
		t.Fatalf("only %d candidates", len(cands))
	}
	for i, cand := range cands {
		zLazy, llLazy, err := eng.InsertionScore(cand, ps.P, z0)
		if err != nil {
			t.Fatal(err)
		}
		zEx, llEx := insertionScoreExhaustive(t, eng, tr, ps, cand, z0)
		if math.Abs(llLazy-llEx) > 1e-6*math.Abs(llEx) {
			t.Errorf("candidate %d: lazy logL %.8f != exhaustive %.8f", i, llLazy, llEx)
		}
		if math.Abs(zLazy-zEx) > 1e-4*(1+zEx) {
			t.Errorf("candidate %d: lazy z %.8f != exhaustive %.8f", i, zLazy, zEx)
		}
	}
	if err := tr.Undo(ps); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertionScoreErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(204))
	pat := randomPatterns(t, rng, 6, 30)
	m := randomModel(t, rng, 2)
	tr := randomTreeFor(t, rng, pat)
	eng, err := NewEngine(pat, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	detached := &phylotree.Node{Index: 99}
	if _, _, err := eng.InsertionScore(detached, tr.Tips[0].Back, 0.1); err == nil {
		t.Error("detached candidate accepted")
	}
	if _, _, err := eng.InsertionScore(tr.Tips[1], detached, 0.1); err == nil {
		t.Error("detached subtree accepted")
	}
}
