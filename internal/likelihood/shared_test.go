package likelihood

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"raxmlcell/internal/likelihood/coldref"
	"raxmlcell/internal/phylotree"
)

// sharedFixture builds an engine with an installed shared vector store and
// tree-edit hooks wired, plus the tree it serves.
func sharedFixture(t *testing.T, seed int64, nTaxa, nSites int) (*Engine, *SharedCache, *phylotree.Tree) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pat := randomPatterns(t, rng, nTaxa, nSites)
	m := randomModel(t, rng, 4)
	tr := randomTreeFor(t, rng, pat)
	eng, err := NewEngine(pat, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	shared := eng.NewSharedCache()
	eng.UseSharedCache(shared)
	eng.AttachTree(tr)
	return eng, shared, tr
}

// internalRecords collects every directed internal ring record of the tree:
// the full domain of Views.Vector / SharedCache.vector.
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

// TestSharedViewsMatchPrivate pins the equivalence that makes the shared
// store a pure scheduling change: for every directed internal record, the
// vector served by a shared-backed Views is bit-identical to the one a
// private per-context Views computes from scratch.
func TestSharedViewsMatchPrivate(t *testing.T) {
	eng, shared, tr := sharedFixture(t, 801, 12, 80)
	sv := eng.NewSharedViews(shared)
	pv := eng.NewViews()
	defer pv.Release()
	recs := internalRecords(tr)
	if len(recs) == 0 {
		t.Fatal("no internal records")
	}
	for i, r := range recs {
		got, err := sv.Vector(r)
		if err != nil {
			t.Fatal(err)
		}
		want, err := pv.Vector(r)
		if err != nil {
			t.Fatal(err)
		}
		assertVectorsEqual(t, fmt.Sprintf("record %d", i), eng, got, want)
	}
	if shared.Computes() == 0 || shared.Computes() > uint64(len(recs)) {
		t.Errorf("shared store computed %d vectors for %d records", shared.Computes(), len(recs))
	}
	// Re-reading everything must be pure hits: no edits, no epoch change.
	computes := shared.Computes()
	for _, r := range recs {
		if _, err := sv.Vector(r); err != nil {
			t.Fatal(err)
		}
	}
	if shared.Computes() != computes {
		t.Errorf("re-read recomputed: %d -> %d computes", computes, shared.Computes())
	}
	if eng.Meter.SharedHits == 0 {
		t.Error("no SharedHits metered on the primary context")
	}
}

// TestSharedCacheEpochInvalidation pins what an edit does to the two stores.
// After a branch change the engine's slots keep the one orientation per ring
// that faces the changed branch and the shared store keeps nothing: a facing
// record held in a slot is served from it (a CacheHit, no compute, the slot's
// own buffer), every other record recomputes — the store's entries from the
// old epoch are dead — and the recomputed vectors are bit-identical to a
// private table's.
func TestSharedCacheEpochInvalidation(t *testing.T) {
	eng, shared, tr := sharedFixture(t, 802, 10, 60)
	sv := eng.NewSharedViews(shared)

	// Find an internal-internal edge so both facing records are internal.
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
	// Slots face e; the store is warm with every record the slots do not hold.
	eng.NewView(e)
	eng.NewView(e.Back)
	recs := internalRecords(tr)
	for _, r := range recs {
		if _, err := sv.Vector(r); err != nil {
			t.Fatal(err)
		}
	}
	if shared.Computes() == 0 {
		t.Fatal("warm-up computed nothing through the store")
	}
	epoch0 := shared.Epoch()

	e.SetZ(e.Z * 1.31)
	eng.Invalidate(e)
	if shared.Epoch() != epoch0+1 {
		t.Fatalf("epoch %d after one invalidation, want %d", shared.Epoch(), epoch0+1)
	}

	// The records facing the changed branch exclude it from their subtree:
	// both are slot reads.
	for _, r := range [...]*phylotree.Node{e, e.Back} {
		computes, hits := shared.Computes(), eng.Meter.CacheHits
		got, err := sv.Vector(r)
		if err != nil {
			t.Fatal(err)
		}
		if shared.Computes() != computes || eng.Meter.CacheHits != hits+1 {
			t.Errorf("facing record: computes %d -> %d, CacheHits %d -> %d, want a slot read",
				computes, shared.Computes(), hits, eng.Meter.CacheHits)
		}
		if &got.lv[0] != &eng.lv[r.Index][0] {
			t.Error("facing record served from a buffer that is not the node's slot")
		}
	}
	// The other orientations at e's ring include the changed branch and must
	// recompute — and match a private table bit for bit.
	pv := eng.NewViews()
	defer pv.Release()
	for _, r := range [...]*phylotree.Node{e.Next, e.Next.Next, e.Back.Next, e.Back.Next.Next} {
		before := shared.Computes()
		got, err := sv.Vector(r)
		if err != nil {
			t.Fatal(err)
		}
		if shared.Computes() == before {
			t.Error("stale orientation served without recompute")
		}
		want, err := pv.Vector(r)
		if err != nil {
			t.Fatal(err)
		}
		assertVectorsEqual(t, "post-invalidate", eng, got, want)
	}

	// InvalidateAll drops the slots too: the next read of anything recomputes.
	eng.InvalidateAll()
	before := shared.Computes()
	if _, err := sv.Vector(e); err != nil {
		t.Fatal(err)
	}
	if shared.Computes() == before {
		t.Error("read after InvalidateAll did not recompute")
	}
}

// TestPoolSharedCacheSingleFlight is the redundancy theorem under real
// concurrency: four workers hammering every directed vector through one
// shared store must compute each exactly once — computes equals the
// distinct-record count no matter how the scheduler interleaves, the rest
// of the requests are hits, and per-worker meter attribution sums to the
// engine total. Runs under -race in CI.
func TestPoolSharedCacheSingleFlight(t *testing.T) {
	eng, shared, tr := sharedFixture(t, 803, 14, 80)
	pool := eng.NewPool(4)
	views := make([]*Views, pool.Workers())
	for w := range views {
		views[w] = pool.Ctx(w).NewSharedViews(shared)
	}
	recs := internalRecords(tr)
	const lapsPerWorker = 4
	n := lapsPerWorker * pool.Workers() * len(recs)
	errs := make([]error, pool.Workers())
	pool.Run(n, func(w, i int) {
		if _, err := views[w].Vector(recs[i%len(recs)]); err != nil {
			errs[w] = err
		}
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	if got, want := shared.Computes(), uint64(len(recs)); got != want {
		t.Errorf("computes = %d, want exactly %d (one per distinct record)", got, want)
	}
	// Every top-level request beyond the computes was a hit; child-edge
	// requests during computes only add to that.
	if minHits := uint64(n) - shared.Computes(); shared.Hits() < minHits {
		t.Errorf("hits = %d, want >= %d", shared.Hits(), minHits)
	}

	// Per-worker attribution: the workers' private meters were merged into
	// the engine and snapshotted per worker; the snapshot must tile the
	// engine totals exactly.
	var sum Meter
	for w := 0; w < pool.Workers(); w++ {
		wm := pool.WorkerMeter(w)
		sum.Add(&wm)
	}
	if sum.NewviewCalls != eng.Meter.NewviewCalls {
		t.Errorf("per-worker NewviewCalls sum %d != engine total %d", sum.NewviewCalls, eng.Meter.NewviewCalls)
	}
	if sum.SharedHits != eng.Meter.SharedHits {
		t.Errorf("per-worker SharedHits sum %d != engine total %d", sum.SharedHits, eng.Meter.SharedHits)
	}
	if eng.Meter.NewviewCalls != shared.Computes() {
		t.Errorf("engine NewviewCalls %d != shared computes %d", eng.Meter.NewviewCalls, shared.Computes())
	}
	if eng.Meter.SharedHits != shared.Hits() {
		t.Errorf("engine SharedHits %d != shared hits %d", eng.Meter.SharedHits, shared.Hits())
	}
	if pool.PeakBusy() < 1 || pool.PeakBusy() > pool.Workers() {
		t.Errorf("PeakBusy = %d, want in [1, %d]", pool.PeakBusy(), pool.Workers())
	}
}

// TestPoolSharedCacheAcrossInvalidations alternates fan-outs with branch
// edits: each Pool.Run barrier must fully publish the previous epoch's
// vectors before the edit bumps the epoch, and every post-edit read must be
// bit-identical to a cold recompute. Runs under -race in CI.
func TestPoolSharedCacheAcrossInvalidations(t *testing.T) {
	eng, shared, tr := sharedFixture(t, 804, 12, 60)
	pool := eng.NewPool(4)
	views := make([]*Views, pool.Workers())
	for w := range views {
		views[w] = pool.Ctx(w).NewSharedViews(shared)
	}
	rng := rand.New(rand.NewSource(805))
	for round := 0; round < 8; round++ {
		recs := internalRecords(tr)
		errs := make([]error, pool.Workers())
		pool.Run(2*len(recs), func(w, i int) {
			if _, err := views[w].Vector(recs[i%len(recs)]); err != nil {
				errs[w] = err
			}
		})
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		// Edit between fan-outs (the search's phasing): bump a branch, then
		// audit a sample of shared vectors against cold recomputes.
		edges := tr.Edges()
		e := edges[rng.Intn(len(edges))]
		e.SetZ(e.Z*0.8 + 0.01)
		eng.Invalidate(e)
		pv := eng.NewViews()
		sv := eng.NewSharedViews(shared)
		for k := 0; k < 5; k++ {
			r := recs[rng.Intn(len(recs))]
			got, err := sv.Vector(r)
			if err != nil {
				t.Fatal(err)
			}
			want, err := pv.Vector(r)
			if err != nil {
				t.Fatal(err)
			}
			assertVectorsEqual(t, "round audit", eng, got, want)
		}
		pv.Release()
	}
}

// lazyScoreAudit does what the search does to one prune candidate — prune p
// through the tree's hooks, orient the engine's slots toward the prune
// point, score every insertion edge within radius 3 — through a private and
// a shared-backed Views, and requires every prescore and every solved score
// to be bit-identical to the one a fresh engine (nothing cached, nothing to read through) computes for
// the same candidate of the same prune on a clone of the tree. It returns the
// pruned subtree with the candidates and the index and branch length of the
// best one, for the caller to undo or accept.
func lazyScoreAudit(t *testing.T, stage string, eng *Engine, sv *Views, tr *phylotree.Tree, p *phylotree.Node) (ps *phylotree.PrunedSubtree, cands []*phylotree.Node, best int, bestZ float64) {
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
	cands = append(phylotree.RadiusEdges(ps.Q, 3), phylotree.RadiusEdges(ps.R, 3)...)
	ccands := append(phylotree.RadiusEdges(cps.Q, 3), phylotree.RadiusEdges(cps.R, 3)...)
	if len(cands) != len(ccands) {
		t.Fatalf("%s: %d candidates, %d on the clone", stage, len(cands), len(ccands))
	}
	fresh, err := NewEngine(eng.Pat, eng.Mod, eng.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	pv, fv := eng.NewViews(), fresh.NewViews()
	z0, bestLL := ps.P.Z, math.Inf(-1)
	var across, freshAcross Across
	if err := pv.CarryAcross(&across, ps.P, z0); err != nil {
		t.Fatal(err)
	}
	if err := fv.CarryAcross(&freshAcross, cps.P, z0); err != nil {
		t.Fatal(err)
	}
	best = -1
	for i, cand := range cands {
		wantPre, err := fv.Prescore(ccands[i], &freshAcross)
		if err != nil {
			t.Fatal(err)
		}
		wantZ, wantLL, err := fv.InsertionScore(ccands[i], cps.P, z0)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range [...]*Views{pv, sv} {
			pre, err := v.Prescore(cand, &across)
			if err != nil {
				t.Fatal(err)
			}
			if pre != wantPre {
				t.Fatalf("%s: candidate %d through the %s Views prescores %.17g, fresh engine %.17g",
					stage, i, [...]string{"private", "shared-backed"}[k], pre, wantPre)
			}
			z, ll, err := v.InsertionScore(cand, ps.P, z0)
			if err != nil {
				t.Fatal(err)
			}
			if z != wantZ || ll != wantLL {
				t.Fatalf("%s: candidate %d through the %s Views scores (%.17g, %.17g), fresh engine (%.17g, %.17g)",
					stage, i, [...]string{"private", "shared-backed"}[k], z, ll, wantZ, wantLL)
			}
		}
		if wantLL > bestLL {
			best, bestZ, bestLL = i, wantZ, wantLL
		}
	}
	pv.Release()
	return ps, cands, best, bestZ
}

// FuzzEpochCacheEquivalence drives random interleavings of branch edits,
// topology moves, lazy-SPR scoring rounds, model and weight swaps, full
// invalidations, edits of a tree the engine is not attached to and reads
// over a random small tree, asserting after every operation that a sample of
// shared-store vectors is bit-identical to a cold private recompute at the
// current epoch, that the class map of every valid slot is the one a fresh
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
		shared := eng.NewSharedCache()
		eng.UseSharedCache(shared)
		eng.AttachTree(tr)
		sv := eng.NewSharedViews(shared)

		audit := func(stage string) {
			recs := internalRecords(tr)
			pv := eng.NewViews()
			for k := 0; k < 4 && k < len(recs); k++ {
				r := recs[rng.Intn(len(recs))]
				got, err := sv.Vector(r)
				if err != nil {
					t.Fatal(err)
				}
				want, err := pv.Vector(r)
				if err != nil {
					t.Fatal(err)
				}
				assertVectorsEqual(t, stage, eng, got, want)
			}
			pv.Release()

			// The engine's own slots: a fresh engine has nothing cached, and
			// a clone enumerates its edges in the same order.
			fresh, err := NewEngine(eng.Pat, eng.Mod, eng.Cfg)
			if err != nil {
				t.Fatal(err)
			}
			edges, cloned := tr.Edges(), tr.Clone().Edges()
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
			case 0: // direct branch change + explicit invalidation
				edges := tr.Edges()
				e := edges[rng.Intn(len(edges))]
				e.SetZ(0.01 + rng.Float64()*0.5)
				eng.Invalidate(e)
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
				targets := phylotree.RadiusEdges(ps.Q, 3)
				targets = append(targets, phylotree.RadiusEdges(ps.R, 3)...)
				if len(targets) == 0 || rng.Intn(3) == 0 {
					if err := tr.Undo(ps); err != nil {
						t.Fatal(err)
					}
				} else if err := tr.Regraft(ps, targets[rng.Intn(len(targets))]); err != nil {
					t.Fatal(err)
				}
			case 2: // Newton branch optimization (self-invalidating)
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
				ps, _, _, _ := lazyScoreAudit(t, "first prune", eng, sv, tr, prunable[rng.Intn(len(prunable))])
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
				ps, cands, best, bestZ := lazyScoreAudit(t, "prune next to the previous one", eng, sv, tr, next.Next)
				if best < 0 {
					if err := tr.Undo(ps); err != nil {
						t.Fatal(err)
					}
					continue
				}
				if err := tr.Regraft(ps, cands[best]); err != nil {
					t.Fatal(err)
				}
				ps.P.SetZ(bestZ)
				eng.Invalidate(ps.P)
				for _, b := range [...]*phylotree.Node{ps.P, ps.P.Next, ps.P.Next.Next} {
					if _, _, err := eng.MakeNewz(b); err != nil {
						t.Fatal(err)
					}
				}
				ps, _, _, _ = lazyScoreAudit(t, "prune after an accepted move", eng, sv, tr, ps.P.Next)
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
				targets := append(phylotree.RadiusEdges(ps.Q, 3), phylotree.RadiusEdges(ps.R, 3)...)
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
