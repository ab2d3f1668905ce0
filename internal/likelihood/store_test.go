package likelihood_test

import (
	"math/rand"
	"os"
	"testing"
	"time"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/parsimony"
	"raxmlcell/internal/search"
	"raxmlcell/internal/seqsim"
)

// storeWatch reads the engine's store after every newview, the only call
// that takes a buffer: it requires that no buffer is lost — every one
// allocated holds a record's vector or waits on the free list — and keeps
// the most buffers held at once.
type storeWatch struct {
	t        *testing.T
	eng      *likelihood.Engine
	peakHeld int
}

func (w *storeWatch) ObserveKernel(op likelihood.KernelOp, _ time.Duration) {
	if op != likelihood.OpNewview {
		return
	}
	allocated, held, free := w.eng.StoreBuffers()
	if allocated != held+free {
		w.t.Fatalf("%d buffers allocated, %d held and %d free: %d lost", allocated, held, free, allocated-held-free)
	}
	w.peakHeld = max(w.peakHeld, held)
}

// TestVectorStoreRecyclesBuffers runs an SPR search of the 42_SC fixture,
// reading the engine's store after every newview: no buffer may be lost,
// and the store must end holding exactly as many buffers as the most
// records it held valid at once. A second search from the same start on the
// same engine then adds no buffer: it needs at most as many records at
// once, and finds every buffer on the free list. The peak may not exceed
// the 66 vectors the former scheme — a slot per inner node beside a memo
// arena — held on the same search (47 of them after round 1 and 65 after
// round 2 here, 48 and 66 then: round 2's prunes reach more records at once,
// so a buffer taken after round 1 is no loss).
func TestVectorStoreRecyclesBuffers(t *testing.T) {
	f, err := os.Open("../core/testdata/42sc.phy")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	a, err := alignment.ReadPhylip(f)
	if err != nil {
		t.Fatal(err)
	}
	pat := alignment.Compress(a)
	start, err := parsimony.BuildStepwise(pat, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	w := &storeWatch{t: t}
	clock := func() time.Duration { return 0 }
	eng, err := likelihood.NewEngine(pat, seqsim.DefaultModel(), likelihood.Config{Observer: w, Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	w.eng = eng
	var perRound []int
	opt := search.DefaultOptions()
	opt.OnProgress = func(pr search.Progress) {
		if pr.Phase == "round" {
			allocated, _, _ := eng.StoreBuffers()
			perRound = append(perRound, allocated)
		}
	}
	if _, err := search.Run(eng, start.Clone(), opt); err != nil {
		t.Fatal(err)
	}
	allocated, _, _ := eng.StoreBuffers()
	t.Logf("%d inner nodes; buffers allocated after each round %v, peak of records held %d", pat.NumTaxa-2, perRound, w.peakHeld)
	if allocated != w.peakHeld {
		t.Errorf("the store allocated %d buffers for a peak of %d records held", allocated, w.peakHeld)
	}
	if allocated > 66 {
		t.Errorf("the store allocated %d buffers, the slots and memo arena held 66", allocated)
	}
	opt.OnProgress = nil
	if _, err := search.Run(eng, start.Clone(), opt); err != nil {
		t.Fatal(err)
	}
	if again, _, _ := eng.StoreBuffers(); again != allocated {
		t.Errorf("the same search again took the store from %d buffers to %d", allocated, again)
	}
}
