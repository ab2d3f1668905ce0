package likelihood

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"raxmlcell/internal/phylotree"
)

// TestPoolRunPartition checks the static contiguous-block task assignment:
// every task runs exactly once, worker w owns the block [w*n/W, (w+1)*n/W),
// and the assignment is a pure function of (n, workers).
func TestPoolRunPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	pat := randomPatterns(t, rng, 8, 40)
	m := randomModel(t, rng, 2)
	eng, err := NewEngine(pat, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 4, 7} {
		p := eng.NewPool(workers)
		if p.Workers() != workers {
			t.Fatalf("pool size %d, want %d", p.Workers(), workers)
		}
		for _, n := range []int{0, 1, 2, 5, 16, 33} {
			got := make([]int, n)
			for i := range got {
				got[i] = -1
			}
			var mu sync.Mutex
			p.Run(n, func(w, task int) {
				mu.Lock()
				defer mu.Unlock()
				if got[task] != -1 {
					t.Errorf("task %d ran twice", task)
				}
				got[task] = w
			})
			w := workers
			if w > n {
				w = n
			}
			for task := 0; task < n; task++ {
				want := -1
				for wk := 0; wk < w; wk++ {
					if task >= n*wk/w && task < n*(wk+1)/w {
						want = wk
						break
					}
				}
				if got[task] != want {
					t.Errorf("workers=%d n=%d: task %d ran on worker %d, want %d",
						workers, n, task, got[task], want)
				}
			}
		}
	}
}

// TestPoolRunMergesMeters verifies worker kernel work lands in the engine
// meter after the fan-out, and that worker contexts are drained (a second
// merge adds nothing).
func TestPoolRunMergesMeters(t *testing.T) {
	rng := rand.New(rand.NewSource(304))
	pat := randomPatterns(t, rng, 8, 50)
	m := randomModel(t, rng, 4)
	eng, err := NewEngine(pat, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := eng.NewPool(3)
	before := eng.Meter
	const tasks = 9
	p.Run(tasks, func(w, task int) {
		c := p.Ctx(w)
		c.transitionMatrices(0.1, c.pLeft)
	})
	gained := eng.Meter.Exps - before.Exps
	want := uint64(tasks * eng.nmat * ns)
	if gained != want {
		t.Errorf("merged Exps %d, want %d", gained, want)
	}
	for i := 0; i < p.Workers(); i++ {
		if p.Ctx(i).ownMeter != (Meter{}) {
			t.Errorf("worker %d meter not drained: %+v", i, p.Ctx(i).ownMeter)
		}
	}
}

// TestPoolOccupancyHook checks the occupancy observer sees plausible
// transitions: busy counts stay within [0, workers] and reach at least 1.
func TestPoolOccupancyHook(t *testing.T) {
	rng := rand.New(rand.NewSource(305))
	pat := randomPatterns(t, rng, 8, 40)
	m := randomModel(t, rng, 2)
	eng, err := NewEngine(pat, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := eng.NewPool(4)
	var mu sync.Mutex
	maxBusy, calls := 0, 0
	p.OnOccupancy = func(busy, workers int) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if busy < 0 || busy > workers {
			t.Errorf("busy %d out of range [0,%d]", busy, workers)
		}
		if busy > maxBusy {
			maxBusy = busy
		}
	}
	p.Run(8, func(w, task int) {
		c := p.Ctx(w)
		c.transitionMatrices(0.05, c.pLeft)
	})
	if calls == 0 || maxBusy < 1 {
		t.Errorf("occupancy hook saw %d calls, max busy %d", calls, maxBusy)
	}
}

// TestMakeNewzScratchConcurrent is the -race regression for the satellite
// fix: PR 2 hoisted the per-Newton-iteration scratch (e0/e1/e2 exponential
// blocks) onto the Engine, which aliased under concurrent callers. The
// scratch now lives on the per-worker Ctx, and this test drives the shared
// Newton core (newtonOnBranch — the same sum-table and Newton-pass machinery
// MakeNewz runs) from two goroutines at once, each with its own context
// and Views over the same frozen pruned tree, exactly like parallel SPR
// candidate scoring. Results must match the serial scores bit for bit.
func TestMakeNewzScratchConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(306))
	pat := randomPatterns(t, rng, 12, 80)
	m := randomModel(t, rng, 4)
	tr := randomTreeFor(t, rng, pat)
	eng, err := NewEngine(pat, m, Config{})
	if err != nil {
		t.Fatal(err)
	}

	ps, err := tr.Prune(tr.Tips[0].Back)
	if err != nil {
		t.Fatal(err)
	}
	z0 := ps.P.Z
	cands := phylotree.RadiusEdges(ps.Q, 4)
	cands = append(cands, phylotree.RadiusEdges(ps.R, 4)...)
	if len(cands) < 4 {
		t.Fatalf("only %d candidates", len(cands))
	}

	// Serial ground truth through the engine's primary context.
	type score struct{ z, ll float64 }
	serial := make([]score, len(cands))
	views := eng.NewViews()
	for i, cand := range cands {
		z, ll, err := views.InsertionScore(cand, ps.P, z0)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = score{z, ll}
	}
	views.Release()

	// Two concurrent scorers, each owning a context and a Views.
	got := make([]score, len(cands))
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v := eng.NewCtx().NewViews()
			defer v.Release()
			for i := g; i < len(cands); i += 2 {
				z, ll, err := v.InsertionScore(cands[i], ps.P, z0)
				if err != nil {
					errs[g] = err
					return
				}
				got[i] = score{z, ll}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	for i := range cands {
		if math.Abs(got[i].z-serial[i].z) > 0 || math.Abs(got[i].ll-serial[i].ll) > 0 {
			t.Errorf("candidate %d: concurrent (%.15f, %.15f) != serial (%.15f, %.15f)",
				i, got[i].z, got[i].ll, serial[i].z, serial[i].ll)
		}
	}
	if err := tr.Undo(ps); err != nil {
		t.Fatal(err)
	}
}

// TestPoolRunReentrancyPanics documents the Run contract: the pool is a
// single fan-out at a time.
func TestPoolRunReentrancyPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(307))
	pat := randomPatterns(t, rng, 8, 40)
	m := randomModel(t, rng, 2)
	eng, err := NewEngine(pat, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := eng.NewPool(2)
	var panicked atomic.Bool
	p.Run(2, func(w, task int) {
		if task != 0 {
			return
		}
		defer func() {
			if recover() != nil {
				panicked.Store(true)
			}
		}()
		p.Run(1, func(w, task int) {})
	})
	if !panicked.Load() {
		t.Error("nested Pool.Run did not panic")
	}
}
