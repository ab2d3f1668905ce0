package likelihood

import (
	"math"
	"math/rand"
	"slices"
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

// TestInvalidateAfterSetZ: after a branch length set by hand on an attached
// tree — no call after the SetZ — the engine evaluates as a full
// recomputation does; its store keeps the one record per ring that faces
// the changed branch, which vector serves from the buffer it held (a
// CacheHit, no newview), while every other record at the branch's rings is
// recomputed, bit-identical to a fresh engine's; after InvalidateAll nothing
// is a store read. Then the store's edit paths, one row each: after every
// kind of edit the engine hears of, every vector stored before it is served
// with a fresh engine's bits, and after an edit that concerns no vector of
// the engine every read is still a store hit.
func TestInvalidateAfterSetZ(t *testing.T) {
	cached, full, tr := enginePair(t, 222, 10, 60)
	cached.AttachTree(tr)
	if _, err := cached.Evaluate(tr.Tips[0]); err != nil {
		t.Fatal(err)
	}
	edges := tr.Edges()
	for _, i := range []int{2, 7, len(edges) - 1} {
		e := edges[i]
		e.SetZ(e.Z * 1.7)
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
	cached.invalidate(&phylotree.Node{Index: 0}, true)
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

	var e *phylotree.Node
	for _, c := range tr.Edges() {
		if !c.IsTip() && !c.Back.IsTip() {
			e = c
			break
		}
	}
	if e == nil {
		t.Fatal("no internal-internal edge")
	}
	held := [...]vec{mustVector(t, cached, e), mustVector(t, cached, e.Back)}
	e.SetZ(e.Z * 1.31)
	fresh, err := NewEngine(cached.Pat, cached.Mod, cached.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range [...]*phylotree.Node{e, e.Back} {
		newviews, hits := cached.Meter.NewviewCalls, cached.Meter.CacheHits
		got, err := cached.vector(r)
		if err != nil {
			t.Fatal(err)
		}
		if cached.Meter.NewviewCalls != newviews || cached.Meter.CacheHits != hits+1 {
			t.Errorf("facing record: newviews %d -> %d, CacheHits %d -> %d, want a store read",
				newviews, cached.Meter.NewviewCalls, hits, cached.Meter.CacheHits)
		}
		if &got.lv[0] != &held[i].lv[0] {
			t.Error("facing record served from a buffer other than the one it held before the edit")
		}
	}
	for _, r := range [...]*phylotree.Node{e.Next, e.Next.Next, e.Back.Next, e.Back.Next.Next} {
		newviews := cached.Meter.NewviewCalls
		got, err := cached.vector(r)
		if err != nil {
			t.Fatal(err)
		}
		if cached.Meter.NewviewCalls == newviews {
			t.Error("stale orientation served without recompute")
		}
		want, err := fresh.vector(r)
		if err != nil {
			t.Fatal(err)
		}
		assertVectorsEqual(t, "post-invalidate", cached, got, want)
	}
	cached.InvalidateAll()
	hits := cached.Meter.CacheHits
	if _, err := cached.vector(e); err != nil {
		t.Fatal(err)
	}
	if cached.Meter.CacheHits != hits {
		t.Error("read after InvalidateAll served from the store")
	}

	// The store's edit paths. Each row may edit the tree first (before the
	// store is filled) and returns the edit under test.
	for _, row := range []editRow{
		{name: "Prune", arm: func(t *testing.T, e *Engine, tr *phylotree.Tree) func() error {
			return func() error { _, err := tr.Prune(editInner(t, tr)); return err }
		}},
		{name: "Regraft", arm: func(t *testing.T, e *Engine, tr *phylotree.Tree) func() error {
			ps := mustPrune(t, tr)
			return func() error { return tr.Regraft(ps, ps.Q.Next.Back) }
		}},
		{name: "Undo", arm: func(t *testing.T, e *Engine, tr *phylotree.Tree) func() error {
			ps := mustPrune(t, tr)
			return func() error { return tr.Undo(ps) }
		}},
		{name: "RemoveTip", arm: func(t *testing.T, e *Engine, tr *phylotree.Tree) func() error {
			return func() error { return tr.RemoveTip(0) }
		}},
		{name: "InsertTip", arm: func(t *testing.T, e *Engine, tr *phylotree.Tree) func() error {
			if err := tr.RemoveTip(0); err != nil {
				t.Fatal(err)
			}
			return func() error { return tr.InsertTip(0, editInner(t, tr)) }
		}},
		{name: "SetZ", arm: func(t *testing.T, e *Engine, tr *phylotree.Tree) func() error {
			return func() error {
				c := editInner(t, tr)
				c.SetZ(c.Z * 1.7)
				return nil
			}
		}},
		// The search's accepted move: the subtree's branch takes its new
		// length while detached, then the subtree is regrafted.
		{name: "AcceptedMove", arm: func(t *testing.T, e *Engine, tr *phylotree.Tree) func() error {
			ps := mustPrune(t, tr)
			return func() error {
				ps.P.SetZ(ps.P.Z * 1.7)
				return tr.Regraft(ps, ps.Q.Next.Back)
			}
		}},
		{name: "MakeNewz", arm: armMakeNewz},
		{name: "MakeNewz/unattached", arm: armMakeNewz, unattached: true},
		{name: "SetModel", arm: func(t *testing.T, e *Engine, tr *phylotree.Tree) func() error {
			return func() error {
				m, err := e.Mod.WithAlpha(e.Mod.Alpha * 2)
				if err != nil {
					return err
				}
				return e.SetModel(m)
			}
		}},
		// InvalidateAll and AttachTree are how an edit the hooks did not
		// see reaches the engine: here a Connect, which tells no one.
		{name: "InvalidateAll", arm: func(t *testing.T, e *Engine, tr *phylotree.Tree) func() error {
			return func() error {
				c := editInner(t, tr)
				phylotree.Connect(c, c.Back, c.Z*1.7)
				e.InvalidateAll()
				return nil
			}
		}},
		{name: "AttachTree", arm: func(t *testing.T, e *Engine, tr *phylotree.Tree) func() error {
			return func() error {
				c := editInner(t, tr)
				phylotree.Connect(c, c.Back, c.Z*1.7)
				e.AttachTree(tr)
				return nil
			}
		}},
		{name: "SetWeights", keeps: true, arm: func(t *testing.T, e *Engine, tr *phylotree.Tree) func() error {
			return func() error {
				w := slices.Clone(e.Pat.Weights)
				w[0]++
				return e.SetWeights(w)
			}
		}},
		{name: "SetZ/same-bits", keeps: true, arm: func(t *testing.T, e *Engine, tr *phylotree.Tree) func() error {
			return func() error {
				c := editInner(t, tr)
				if c.SetZ(c.Z) {
					t.Error("SetZ of the stored length reported a change")
				}
				return nil
			}
		}},
		{name: "Clone", keeps: true, arm: func(t *testing.T, e *Engine, tr *phylotree.Tree) func() error {
			return func() error {
				for _, c := range tr.Clone().Edges() {
					c.SetZ(c.Z * 1.7)
				}
				return nil
			}
		}},
	} {
		t.Run("store/"+row.name, func(t *testing.T) { checkEditPath(t, row) })
	}
}

// editRow is one edit path of the store: arm may edit the tree before the
// store is filled and returns the edit under test. keeps marks an edit that
// concerns no vector of the engine; unattached runs the row on an engine
// that does not observe the tree.
type editRow struct {
	name       string
	arm        func(t *testing.T, e *Engine, tr *phylotree.Tree) func() error
	keeps      bool
	unattached bool
}

// armMakeNewz moves an inner–inner branch far from its optimum before the
// store is filled, so the solve under test moves it back.
func armMakeNewz(t *testing.T, e *Engine, tr *phylotree.Tree) func() error {
	c := editInner(t, tr)
	c.SetZ(c.Z * 5)
	return func() error { _, _, err := e.MakeNewz(c); return err }
}

// editInner is an inner–inner edge of tr whose near end has an inner
// child: the target of the store rows' edits.
func editInner(t *testing.T, tr *phylotree.Tree) *phylotree.Node {
	t.Helper()
	for _, c := range tr.Edges() {
		if !c.IsTip() && !c.Back.IsTip() && !c.Next.Back.IsTip() {
			return c
		}
	}
	t.Fatal("no inner-inner edge")
	return nil
}

// mustPrune prunes the subtree behind editInner's far end.
func mustPrune(t *testing.T, tr *phylotree.Tree) *phylotree.PrunedSubtree {
	t.Helper()
	ps, err := tr.Prune(editInner(t, tr))
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// checkEditPath arms a row on an engine (attached to the tree unless the
// row says otherwise), fills its store with every directed vector of the
// tree, makes the edit, and reads every vector again: each must have a fresh
// engine's bits. After a keeps edit every read must be a store hit; after
// any other, at least one vector must differ from what it was before the
// edit, or the row could not tell a stale store from a valid one.
func checkEditPath(t *testing.T, row editRow) {
	rng := rand.New(rand.NewSource(444))
	pat := randomPatterns(t, rng, 10, 60)
	tr := randomTreeFor(t, rng, pat)
	eng, err := NewEngine(pat, randomModel(t, rng, 4), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !row.unattached {
		eng.AttachTree(tr)
	}
	edit := row.arm(t, eng, tr)
	before := make(map[*phylotree.Node][]float64)
	for _, r := range internalRecords(tr) {
		if v, err := eng.vector(r); err == nil {
			before[r], _ = expandVec(eng, v)
		}
	}
	if err := edit(); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewEngine(eng.Pat, eng.Mod, eng.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	newviews, hits := eng.Meter.NewviewCalls, eng.Meter.CacheHits
	changed, reads := 0, uint64(0)
	for _, r := range internalRecords(tr) {
		want, err := fresh.vector(r)
		if err != nil {
			continue // a record of the pruned subtree's ring
		}
		got, err := eng.vector(r)
		if err != nil {
			t.Fatal(err)
		}
		reads++
		assertVectorsEqual(t, "after the edit", eng, got, want)
		if old, ok := before[r]; ok {
			if lv, _ := expandVec(eng, want); !slices.Equal(lv, old) {
				changed++
			}
		}
	}
	if row.keeps {
		if eng.Meter.NewviewCalls != newviews || eng.Meter.CacheHits != hits+reads {
			t.Errorf("newviews %d -> %d, store hits %d -> %d over %d reads, want every read a hit",
				newviews, eng.Meter.NewviewCalls, hits, eng.Meter.CacheHits, reads)
		}
	} else if changed == 0 {
		t.Error("no stored vector changed: the row cannot tell a stale store")
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
		targets := radiusEdges(ps.Q, 5)
		targets = append(targets, radiusEdges(ps.R, 5)...)
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
