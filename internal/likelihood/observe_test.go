package likelihood

import (
	"math/rand"
	"testing"
	"time"

	"raxmlcell/internal/phylotree"
)

// tickObserver sums what each kernel op was observed for, and how often.
type tickObserver struct {
	ticks [NumKernelOps]time.Duration
	calls [NumKernelOps]uint64
}

func (o *tickObserver) ObserveKernel(op KernelOp, d time.Duration) {
	o.ticks[op] += d
	o.calls[op]++
}

// workClock is a clock that advances only with the work the meter counts:
// one tick per flop, class pass, newview, solve and Newton iteration.
func workClock(m *Meter) time.Duration {
	return time.Duration(m.Flops() + m.ClassPasses + m.NewviewCalls + m.MakenewzCalls + m.NewtonIters)
}

// TestKernelTimeCoversWholeKernel pins what the OpNewview and OpMakenewz
// brackets contain, on an injected clock that advances only with counted
// work: every tick of a newview — the numbering of its repeat classes
// included — falls inside an OpNewview bracket, every tick of a solve — its
// sum table included — inside an OpMakenewz one, the two never nest, and each
// call is one observation. On both backends, for newviews from cold, a solve
// on current vectors, a smoothing sweep and lazy-SPR scoring.
func TestKernelTimeCoversWholeKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(2901))
	pat := randomPatterns(t, rng, 9, 300)
	m := randomModel(t, rng, 4)
	base := randomTreeFor(t, rng, pat)
	for _, backend := range Backends() {
		tr := base.Clone()
		obs := &tickObserver{}
		var eng *Engine
		eng, err := NewEngine(pat, m, Config{Backend: backend, Observer: obs, Now: func() time.Duration { return workClock(&eng.Meter) }})
		if err != nil {
			t.Fatal(err)
		}
		eng.AttachTree(tr)
		check := func(what string, wantNewview, wantMakenewz bool, f func() error) {
			t.Helper()
			m0, o0 := eng.Meter, *obs
			if err := f(); err != nil {
				t.Fatal(err)
			}
			work := workClock(&eng.Meter) - workClock(&m0)
			nv, mz := obs.ticks[OpNewview]-o0.ticks[OpNewview], obs.ticks[OpMakenewz]-o0.ticks[OpMakenewz]
			if nv+mz != work || (nv > 0) != wantNewview || (mz > 0) != wantMakenewz {
				t.Errorf("%s, %s: %d ticks of work, %d observed as newview and %d as makenewz", backend, what, work, nv, mz)
			}
			if n, want := obs.calls[OpNewview]-o0.calls[OpNewview], eng.Meter.NewviewCalls-m0.NewviewCalls; n != want {
				t.Errorf("%s, %s: %d newview observations for %d newviews", backend, what, n, want)
			}
			if n, want := obs.calls[OpMakenewz]-o0.calls[OpMakenewz], eng.Meter.MakenewzCalls-m0.MakenewzCalls; n != want {
				t.Errorf("%s, %s: %d makenewz observations for %d solves", backend, what, n, want)
			}
		}
		var inner *phylotree.Node
		for _, e := range tr.Edges() {
			if !e.IsTip() && !e.Back.IsTip() {
				inner = e
				break
			}
		}
		classes := eng.Meter.ClassPasses
		check("newviews from cold", true, false, func() error {
			if _, err := eng.vector(inner); err != nil {
				return err
			}
			_, err := eng.vector(inner.Back)
			return err
		})
		if eng.Meter.ClassPasses == classes {
			t.Fatalf("%s: no class pass ran: the test lost what it pins", backend)
		}
		check("a solve on current vectors", false, true, func() error { _, _, err := eng.MakeNewz(inner); return err })
		check("a smoothing sweep", true, true, func() error {
			for _, e := range tr.Edges() {
				if _, err := eng.MakeNewzTo(e, 1e-4); err != nil {
					return err
				}
			}
			return nil
		})

		ps, err := tr.Prune(inner)
		if err != nil {
			t.Fatal(err)
		}
		var across Across
		if err := eng.CarryAcross(&across, ps.P, ps.P.Z); err != nil {
			t.Fatal(err)
		}
		check("lazy-SPR scoring", true, true, func() error {
			for _, cand := range tr.Edges() {
				if cand.Back == nil {
					continue
				}
				if _, err := eng.Prescore(cand, &across); err != nil {
					return err
				}
				if _, _, err := eng.InsertionScore(cand, ps.P, ps.P.Z); err != nil {
					return err
				}
			}
			return nil
		})
		if err := tr.Undo(ps); err != nil {
			t.Fatal(err)
		}
	}
}
