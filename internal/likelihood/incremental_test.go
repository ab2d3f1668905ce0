package likelihood

import (
	"math"
	"math/rand"
	"testing"

	"raxmlcell/internal/likelihood/coldref"
	"raxmlcell/internal/phylotree"
)

// incrTol is the agreement bound between cached and full recomputation.
// In the serial engine the cached path reuses bit-identical vectors, so the
// bound mostly guards against platform-dependent FMA contraction.
const incrTol = 1e-9

func logLClose(a, b float64) bool {
	return math.Abs(a-b) <= incrTol*math.Max(1, math.Abs(b))
}

// enginePair builds two engines over the same data: the one under test, and
// a second that the tests drive only through coldref, so that every one of
// its calls is a full recomputation.
func enginePair(t *testing.T, seed int64, nTaxa, nSites int) (*Engine, *Engine, *phylotree.Tree) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pat := randomPatterns(t, rng, nTaxa, nSites)
	m := randomModel(t, rng, 4)
	tr := randomTreeFor(t, rng, pat)
	cached, err := NewEngine(pat, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewEngine(pat, m, Config{Backend: "scalar"})
	if err != nil {
		t.Fatal(err)
	}
	return cached, full, tr
}

func TestIncrementalEvaluateMatchesFull(t *testing.T) {
	cached, full, tr := enginePair(t, 111, 12, 80)
	for i, e := range tr.Edges() {
		want, err := coldref.Evaluate(full, e)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cached.Evaluate(e)
		if err != nil {
			t.Fatal(err)
		}
		if !logLClose(got, want) {
			t.Fatalf("edge %d: incremental logL %.12f != full %.12f", i, got, want)
		}
	}
	// After the first evaluation populated the cache, later evaluations at
	// other branches must have stopped at valid views.
	if cached.Meter.CacheHits == 0 {
		t.Error("no cache hits across repeated evaluations")
	}
	if cached.Meter.NewviewCalls >= full.Meter.NewviewCalls {
		t.Errorf("incremental performed %d combines, full only %d",
			cached.Meter.NewviewCalls, full.Meter.NewviewCalls)
	}
	// The meter counts only work actually performed.
	if cached.Meter.BigLoopIters != uint64(cached.Pat.NumPatterns())*cached.Meter.NewviewCalls {
		t.Errorf("big loop iters %d != patterns*newviews", cached.Meter.BigLoopIters)
	}
}

func TestInvalidateAfterSetZ(t *testing.T) {
	cached, full, tr := enginePair(t, 222, 10, 60)
	if _, err := cached.Evaluate(tr.Tips[0]); err != nil {
		t.Fatal(err)
	}
	// Change branch lengths directly (bypassing MakeNewz) and invalidate by
	// hand, as the documented contract requires.
	edges := tr.Edges()
	for _, i := range []int{2, 7, len(edges) - 1} {
		e := edges[i]
		e.SetZ(e.Z * 1.7)
		cached.Invalidate(e)
		want, err := coldref.Evaluate(full, tr.Tips[0])
		if err != nil {
			t.Fatal(err)
		}
		got, err := cached.Evaluate(tr.Tips[0])
		if err != nil {
			t.Fatal(err)
		}
		if !logLClose(got, want) {
			t.Fatalf("after SetZ on edge %d: incremental %.12f != full %.12f", i, got, want)
		}
	}
	// A detached record falls back to dropping everything rather than
	// guessing an orientation.
	cached.Invalidate(&phylotree.Node{Index: 0})
	got, err := cached.Evaluate(tr.Tips[0])
	if err != nil {
		t.Fatal(err)
	}
	want, err := coldref.Evaluate(full, tr.Tips[0])
	if err != nil {
		t.Fatal(err)
	}
	if !logLClose(got, want) {
		t.Fatalf("after InvalidateAll fallback: %.12f != %.12f", got, want)
	}
}

func TestMakeNewzSelfInvalidates(t *testing.T) {
	cached, full, tr := enginePair(t, 333, 10, 60)
	trB := tr.Clone() // same topology/lengths; Edges() enumerates identically
	// A full smoothing sweep on each copy: MakeNewz must keep the cache
	// coherent on its own, so both engines walk identical Newton sequences.
	for pass := 0; pass < 3; pass++ {
		edgesA, edgesB := tr.Edges(), trB.Edges()
		if len(edgesA) != len(edgesB) {
			t.Fatal("clone edge count mismatch")
		}
		for i := range edgesA {
			zc, llc, err := cached.MakeNewz(edgesA[i])
			if err != nil {
				t.Fatal(err)
			}
			zf, llf, err := coldref.MakeNewz(full, edgesB[i])
			if err != nil {
				t.Fatal(err)
			}
			if zc != zf {
				t.Fatalf("pass %d edge %d: cached z=%.17g, full z=%.17g", pass, i, zc, zf)
			}
			if !logLClose(llc, llf) {
				t.Fatalf("pass %d edge %d: cached logL %.12f != full %.12f", pass, i, llc, llf)
			}
		}
	}
	if cached.Meter.CacheHits == 0 {
		t.Error("smoothing produced no cache hits")
	}
	if cached.Meter.NewviewCalls*2 > full.Meter.NewviewCalls {
		t.Errorf("smoothing combines barely reduced: cached %d vs full %d",
			cached.Meter.NewviewCalls, full.Meter.NewviewCalls)
	}
}

func TestAttachTreeTopologyMoves(t *testing.T) {
	cached, full, tr := enginePair(t, 444, 12, 60)
	cached.AttachTree(tr)
	rng := rand.New(rand.NewSource(445))

	check := func(stage string) {
		t.Helper()
		want, err := coldref.Evaluate(full, tr.Tips[0])
		if err != nil {
			t.Fatal(err)
		}
		got, err := cached.Evaluate(tr.Tips[0])
		if err != nil {
			t.Fatal(err)
		}
		if !logLClose(got, want) {
			t.Fatalf("%s: incremental %.12f != full %.12f", stage, got, want)
		}
	}
	check("initial")

	for step := 0; step < 20; step++ {
		// Collect internal prune candidates.
		var cands []*phylotree.Node
		for _, e := range tr.Edges() {
			if !e.IsTip() {
				cands = append(cands, e)
			}
			if !e.Back.IsTip() {
				cands = append(cands, e.Back)
			}
		}
		p := cands[rng.Intn(len(cands))]
		ps, err := tr.Prune(p)
		if err != nil {
			continue
		}
		targets := phylotree.RadiusEdges(ps.Q, 5)
		targets = append(targets, phylotree.RadiusEdges(ps.R, 5)...)
		if step%3 == 0 || len(targets) == 0 {
			if err := tr.Undo(ps); err != nil {
				t.Fatal(err)
			}
			check("undo")
			continue
		}
		if err := tr.Regraft(ps, targets[rng.Intn(len(targets))]); err != nil {
			t.Fatal(err)
		}
		check("regraft")
	}
	if cached.Meter.CacheHits == 0 {
		t.Error("topology moves produced no cache hits")
	}
}

func TestSetModelInvalidates(t *testing.T) {
	cached, full, tr := enginePair(t, 555, 8, 50)
	if _, err := cached.Evaluate(tr.Tips[0]); err != nil {
		t.Fatal(err)
	}
	m2, err := cached.Mod.WithAlpha(cached.Mod.Alpha * 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := cached.SetModel(m2); err != nil {
		t.Fatal(err)
	}
	if err := full.SetModel(m2); err != nil {
		t.Fatal(err)
	}
	got, err := cached.Evaluate(tr.Tips[0])
	if err != nil {
		t.Fatal(err)
	}
	want, err := coldref.Evaluate(full, tr.Tips[0])
	if err != nil {
		t.Fatal(err)
	}
	if !logLClose(got, want) {
		t.Fatalf("after SetModel: incremental %.12f != full %.12f", got, want)
	}
}
