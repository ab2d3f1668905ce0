package core

import (
	"math"
	"os"
	"testing"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/likelihood/coldref"
	"raxmlcell/internal/search"
)

// TestInferOnceIncrementalMatches runs a seeded inference on the 42_SC
// fixture and checks the top-level contract of an engine that never
// recomputes a valid vector: the reported log-likelihood is what a full
// recomputation of the returned tree gives (within 1e-9), and the aggregate
// meter shows the cache at work.
func TestInferOnceIncrementalMatches(t *testing.T) {
	if testing.Short() {
		t.Skip("full 42-taxon inference")
	}
	f, err := os.Open("testdata/42sc.phy")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a, err := alignment.ReadPhylip(f)
	if err != nil {
		t.Fatal(err)
	}
	pat := alignment.Compress(a)

	cfg := DefaultConfig()
	cfg.Seed = 9
	cfg.Search = search.Options{Radius: 3, MaxRounds: 2, SmoothPasses: 2, Epsilon: 0.05, AlphaOpt: true}

	res, meter, err := InferOnce(pat, cfg)
	if err != nil {
		t.Fatal(err)
	}

	mod, err := ModelFor(pat, res.Alpha, cfg.Cats)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := likelihood.NewEngine(pat, mod, likelihood.Config{Backend: "scalar"})
	if err != nil {
		t.Fatal(err)
	}
	want, err := coldref.Evaluate(ref, res.Tree.Tips[0])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.LogL-want) > 1e-9*math.Abs(want) {
		t.Errorf("inference logL %.12f != full recomputation %.12f", res.LogL, want)
	}
	if meter.CacheHits == 0 {
		t.Error("inference recorded no cache hits")
	}
	// Measured 5.1 newview calls per Newton solve (most of them the lazy-SPR
	// memo's vectors, recomputed per prune); with the engine recomputing the tree
	// for every call the same inference measured 11.7.
	if meter.NewviewCalls > 7*meter.MakenewzCalls {
		t.Errorf("%d newview calls for %d Newton solves, want <= 7 per solve",
			meter.NewviewCalls, meter.MakenewzCalls)
	}
	t.Logf("newview calls: %d for %d Newton solves, %d cache hits",
		meter.NewviewCalls, meter.MakenewzCalls, meter.CacheHits)
}
