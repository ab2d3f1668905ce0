package likelihood

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/model"
	"raxmlcell/internal/phylotree"
)

// setProcs sets GOMAXPROCS and has the executor note it, as building a
// multi-block engine would, and wakes the helpers' trust, whatever an earlier
// test led them to conclude about this host.
func setProcs(n int) (restore func()) {
	prev := runtime.GOMAXPROCS(n)
	executor.noteProcs()
	executor.snoozeUntil.Store(0)
	return func() {
		runtime.GOMAXPROCS(prev)
		executor.noteProcs()
	}
}

// withProcs is setProcs for the rest of the test.
func withProcs(t testing.TB, n int) { t.Cleanup(setProcs(n)) }

// patternsOfCount draws random columns over nTaxa taxa and keeps exactly
// npat distinct patterns of them.
func patternsOfCount(t *testing.T, rng *rand.Rand, nTaxa, npat int) *alignment.Patterns {
	t.Helper()
	full := randomPatterns(t, rng, nTaxa, npat+npat/8+8)
	if full.NumPatterns() < npat {
		t.Fatalf("%d taxa gave %d distinct patterns, want %d", nTaxa, full.NumPatterns(), npat)
	}
	p := *full
	p.Data = make([][]byte, len(full.Data))
	for i, row := range full.Data {
		p.Data[i] = row[:npat]
	}
	p.Weights = full.Weights[:npat]
	p.NumSites = 0
	for _, w := range p.Weights {
		p.NumSites += w
	}
	return &p
}

// kernelTrace is what a fixed sequence of kernel calls returned, float by
// float, with the meter and underflow count it left.
type kernelTrace struct {
	vals      []float64
	meter     Meter
	underflow uint64
}

// driveKernels runs the sequence the executor tests compare across
// schedules — a full newview, evaluate at two branches, per-site logs and a
// MakeNewz sweep over every branch — from the tree's entry branch lengths,
// which it restores.
func driveKernels(e *Engine, tr *phylotree.Tree) (kernelTrace, error) {
	edges := tr.Edges()
	z0 := make([]float64, len(edges))
	for i, ed := range edges {
		z0[i] = ed.Z
	}
	defer func() {
		for i, ed := range edges {
			ed.SetZ(z0[i])
		}
		e.InvalidateAll()
	}()
	e.InvalidateAll()
	var k kernelTrace
	p := tr.Tips[0].Back
	v, err := e.vector(p)
	if err != nil {
		return k, err
	}
	lv, _ := expandVec(e, v)
	k.vals = append(k.vals, lv...)
	for _, at := range []*phylotree.Node{tr.Tips[0], edges[len(edges)/2]} {
		ll, err := e.Evaluate(at)
		if err != nil {
			return k, err
		}
		k.vals = append(k.vals, ll)
	}
	ps, err := e.PerSiteLogL(tr.Tips[1], nil)
	if err != nil {
		return k, err
	}
	k.vals = append(k.vals, ps...)
	for _, ed := range edges {
		z, ll, err := e.MakeNewz(ed)
		if err != nil {
			return k, err
		}
		k.vals = append(k.vals, z, ll)
	}
	k.meter, k.underflow = e.Meter, e.UnderflowSites()
	return k, nil
}

// diff describes the first disagreement between two traces; the executor's
// contract is bit equality, so floats are compared exactly.
func (k kernelTrace) diff(o kernelTrace) string {
	if len(k.vals) != len(o.vals) {
		return fmt.Sprintf("%d values against %d", len(k.vals), len(o.vals))
	}
	for i := range k.vals {
		if k.vals[i] != o.vals[i] {
			return fmt.Sprintf("value %d of %d: %.17g against %.17g", i, len(k.vals), k.vals[i], o.vals[i])
		}
	}
	if k.meter != o.meter {
		return "meters:\n " + k.meter.String() + "\n " + o.meter.String()
	}
	if k.underflow != o.underflow {
		return fmt.Sprintf("underflow sites %d against %d", k.underflow, o.underflow)
	}
	return ""
}

// traceAt builds an engine and drives it while GOMAXPROCS is procs.
func traceAt(t *testing.T, procs int, pat *alignment.Patterns, m *model.Model, cfg Config, tr *phylotree.Tree) kernelTrace {
	t.Helper()
	defer setProcs(procs)()
	e, err := NewEngine(pat, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	k, err := driveKernels(e, tr)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// threeBlocks is a pattern count with two full blocks and a short third.
const threeBlocks = 2*rangeBlock + 88

// procsFixture is a three-block alignment, a Gamma or CAT model and a tree.
func procsFixture(t *testing.T, seed int64, nTaxa int, cat bool) (*alignment.Patterns, *model.Model, *phylotree.Tree) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pat := patternsOfCount(t, rng, nTaxa, threeBlocks)
	m := randomModel(t, rng, 4)
	if cat {
		m = catModelFor(t, rng, pat)
	}
	return pat, m, randomTreeFor(t, rng, pat)
}

// TestParallelKernelsMatchSerial: vectors, log-likelihoods, per-site logs,
// optimised branch lengths and the whole meter of a three-block engine have
// the same bits at GOMAXPROCS 1 (no helper, nothing published) and 4 (three
// helpers, above this host's CPU count so that blocks really interleave).
func TestParallelKernelsMatchSerial(t *testing.T) {
	pat, m, tr := procsFixture(t, 501, 14, false)
	run0, _ := RangeBlocks()
	serial := traceAt(t, 1, pat, m, Config{}, tr)
	par := traceAt(t, 4, pat, m, Config{}, tr)
	if d := serial.diff(par); d != "" {
		t.Errorf("GOMAXPROCS 1 against 4: %s", d)
	}
	if run, _ := RangeBlocks(); run == run0 {
		t.Error("a three-block engine ran no block through the executor")
	}
	if executor.helpers.Load() < 3 {
		t.Errorf("%d helpers after a pass at GOMAXPROCS 4, want 3", executor.helpers.Load())
	}
	if executor.current.Load() != nil {
		t.Error("a finished call left its context published")
	}
}

// TestParallelCATMatchesSerial is the same property on the CAT layout, where
// every backend runs the scalar loops.
func TestParallelCATMatchesSerial(t *testing.T) {
	pat, m, tr := procsFixture(t, 504, 10, true)
	if d := traceAt(t, 1, pat, m, Config{}, tr).diff(traceAt(t, 4, pat, m, Config{}, tr)); d != "" {
		t.Errorf("CAT, GOMAXPROCS 1 against 4: %s", d)
	}
}

// TestBackendThreadsBitIdentical crosses the two axes: the tiled kernels
// with helpers on their own tiles against the scalar reference run by one
// goroutine. Block sums are bit-equal between backends and folded in the same
// order, so the reductions agree exactly too. Under -race this is the tile
// isolation gate.
func TestBackendThreadsBitIdentical(t *testing.T) {
	pat, m, tr := procsFixture(t, 604, 12, false)
	ref := traceAt(t, 1, pat, m, Config{Backend: "scalar"}, tr)
	if d := ref.diff(traceAt(t, 4, pat, m, Config{Backend: "batched"}, tr)); d != "" {
		t.Errorf("scalar at GOMAXPROCS 1 against batched at 4: %s", d)
	}
}

// TestParallelSmallInputStaysSerial: an engine of exactly one block never
// touches the executor — no block counted, no helper started, no claim state
// allocated — whatever GOMAXPROCS is.
func TestParallelSmallInputStaysSerial(t *testing.T) {
	withProcs(t, 4)
	for _, npat := range []int{20, rangeBlock} {
		rng := rand.New(rand.NewSource(502))
		pat := patternsOfCount(t, rng, 8, npat)
		m := randomModel(t, rng, 2)
		tr := randomTreeFor(t, rng, pat)
		run0, adopted0 := RangeBlocks()
		helpers0 := executor.helpers.Load()
		eng, err := NewEngine(pat, m, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := driveKernels(eng, tr); err != nil {
			t.Fatal(err)
		}
		run, adopted := RangeBlocks()
		if run != run0 || adopted != adopted0 || executor.helpers.Load() != helpers0 {
			t.Errorf("%d patterns: blocks %d -> %d, adopted %d -> %d, helpers %d -> %d; want no change",
				npat, run0, run, adopted0, adopted, helpers0, executor.helpers.Load())
		}
		if eng.nblk != 1 || eng.scr.job.idle != nil {
			t.Errorf("%d patterns: %d blocks, claim state allocated: %v", npat, eng.nblk, eng.scr.job.idle != nil)
		}
	}
}

// TestSplitPatternsCoversAll is the block-cover property at the block
// boundaries: the blocks of an engine tile [0, npat) in order, each starts on
// a tile boundary and none is empty or longer than rangeBlock.
func TestSplitPatternsCoversAll(t *testing.T) {
	if rangeBlock%batchTile != 0 {
		t.Fatalf("rangeBlock %d is not a multiple of batchTile %d", rangeBlock, batchTile)
	}
	const B = rangeBlock
	for _, npat := range []int{B - 1, B, B + 1, 2 * B, 2*B + 1} {
		rng := rand.New(rand.NewSource(503))
		pat := patternsOfCount(t, rng, 8, npat)
		eng, err := NewEngine(pat, randomModel(t, rng, 2), Config{})
		if err != nil {
			t.Fatal(err)
		}
		if want := (npat + B - 1) / B; eng.nblk != want || len(eng.scr.parts) != want {
			t.Fatalf("npat=%d: %d blocks, %d part slots, want %d", npat, eng.nblk, len(eng.scr.parts), want)
		}
		last := 0
		for b := 0; b < eng.nblk; b++ {
			r := eng.blockRange(b)
			if r.lo != last || r.hi <= r.lo || r.hi-r.lo > B || r.lo%batchTile != 0 {
				t.Fatalf("npat=%d: block %d is %+v after %d", npat, b, r, last)
			}
			last = r.hi
		}
		if last != npat {
			t.Errorf("npat=%d: blocks end at %d", npat, last)
		}
	}
}

// TestExecutorStressFourEngines publishes from four goroutines at once, each
// with its own three-block engine and tree, at GOMAXPROCS 4: one pass is
// published at a time, the others run unpublished, helpers move between them,
// and every engine must still match the trace its twin left at GOMAXPROCS 1.
// Under -race this is the executor's gate.
func TestExecutorStressFourEngines(t *testing.T) {
	const engines = 4
	type fixture struct {
		pat  *alignment.Patterns
		m    *model.Model
		tr   *phylotree.Tree
		cfg  Config
		want kernelTrace
	}
	fx := make([]fixture, engines)
	for i := range fx {
		f := &fx[i]
		f.pat, f.m, f.tr = procsFixture(t, int64(520+i), 8+i, i == 3)
		f.cfg = Config{Backend: Backends()[i%len(Backends())]}
		f.want = traceAt(t, 1, f.pat, f.m, f.cfg, f.tr)
	}
	withProcs(t, 4)
	errs := make([]error, engines)
	var wg sync.WaitGroup
	for i := range fx {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := &fx[i]
			e, err := NewEngine(f.pat, f.m, f.cfg)
			if err != nil {
				errs[i] = err
				return
			}
			for round := 0; round < 3 && errs[i] == nil; round++ {
				e.Meter = Meter{}
				e.underflowSites = 0
				got, err := driveKernels(e, f.tr)
				if err != nil {
					errs[i] = err
				} else if d := f.want.diff(got); d != "" {
					errs[i] = fmt.Errorf("round %d: %s", round, d)
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("engine %d: %v", i, err)
		}
	}
	// A helper gives its place inside the pass back just after its last block.
	for i := 0; executor.inPass.Load() != 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if executor.current.Load() != nil || executor.inPass.Load() != 0 {
		t.Errorf("after the last call: published %v, %d goroutines counted inside a pass",
			executor.current.Load() != nil, executor.inPass.Load())
	}
}

// TestExecutorDoesNotRetainEngine: once a call has returned nothing the
// executor or a live helper holds keeps the engine reachable. The finalizer
// sits on the patterns, which only the engine references and which, unlike
// the engine and its context, are not part of a pointer cycle.
func TestExecutorDoesNotRetainEngine(t *testing.T) {
	withProcs(t, 2)
	collected := make(chan struct{})
	func() {
		pat, m, tr := procsFixture(t, 530, 8, false)
		runtime.SetFinalizer(pat, func(*alignment.Patterns) { close(collected) })
		e, err := NewEngine(pat, m, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := driveKernels(e, tr); err != nil {
			t.Fatal(err)
		}
	}()
	if executor.helpers.Load() == 0 {
		t.Fatal("no helper is alive")
	}
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Error("the engine's patterns were not collected after its last call returned")
}

// sweep runs MakeNewz over every branch n times: a smoothing loop without
// the search package.
func sweep(e *Engine, tr *phylotree.Tree, n int) error {
	for ; n > 0; n-- {
		for _, ed := range tr.Edges() {
			if _, _, err := e.MakeNewz(ed); err != nil {
				return err
			}
		}
	}
	return nil
}

// twoCPUsFree reports whether the host has two CPUs for this process right
// now: three spins alone take the same time each, and two goroutines spinning
// side by side take no longer than one alone.
func twoCPUsFree() bool {
	if runtime.NumCPU() < 2 {
		return false
	}
	// The result goes into the duration's low bit so the loop is not dead code.
	spin := func() time.Duration {
		t0 := time.Now()
		x := 1.0
		for i := 0; i < 2_000_000; i++ {
			x = x*1.0000001 + 1e-9
		}
		d := time.Since(t0)
		if x < 0 {
			d++
		}
		return d
	}
	solo := []time.Duration{spin(), spin(), spin()}
	var wg sync.WaitGroup
	var pair [2]time.Duration
	for i := range pair {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pair[i] = spin()
		}()
	}
	wg.Wait()
	fastest := slices.Min(solo)
	return slices.Max(solo) < fastest*5/4 && max(pair[0], pair[1]) < fastest*5/4
}

// TestHelpersAdoptOnlyIdleCPUs is the paper's MGPS rule read off the two
// executor counters at GOMAXPROCS 2: one engine smoothing alone shares its
// blocks with the helper; two engines smoothing side by side keep a CPU each
// (a caller between two passes is not counted, so the helper still picks up
// the odd block); and once one of them is done the other is helped again.
func TestHelpersAdoptOnlyIdleCPUs(t *testing.T) {
	withProcs(t, 2)
	const npat = 8 * rangeBlock
	type side struct {
		e  *Engine
		tr *phylotree.Tree
	}
	var sides [2]side
	for i := range sides {
		rng := rand.New(rand.NewSource(int64(540 + i)))
		pat := patternsOfCount(t, rng, 10, npat)
		e, err := NewEngine(pat, randomModel(t, rng, 4), Config{})
		if err != nil {
			t.Fatal(err)
		}
		sides[i] = side{e, randomTreeFor(t, rng, pat)}
	}
	share := func(run0, adopted0 uint64) float64 {
		run, adopted := RangeBlocks()
		return float64(adopted-adopted0) / float64(run-run0)
	}
	// helped sweeps until the helper is back — parked, it needs a publish to
	// wake it and a moment to arrive — and then reads the adopted share of
	// three sweeps more.
	helped := func(s side) (float64, error) {
		for i := 0; i < 40; i++ {
			run0, adopted0 := RangeBlocks()
			if err := sweep(s.e, s.tr, 1); err != nil {
				return 0, err
			}
			if share(run0, adopted0) >= 0.25 {
				break
			}
		}
		run0, adopted0 := RangeBlocks()
		err := sweep(s.e, s.tr, 3)
		return share(run0, adopted0), err
	}

	// The lower bounds need a second CPU that is really free while they are
	// measured: on a shared host, or with another package's tests running
	// beside this one, it often is not, and the helper rightly stays away.
	// So the shares are taken up to five times and count only if two spinning
	// goroutines ran side by side at full speed both before and after.
	var alone, both, after float64
	measured := false
	for try := 0; try < 5 && !(measured && alone >= 0.25 && both <= 0.15 && after >= 0.25); try++ {
		measured = false
		if !twoCPUsFree() {
			continue
		}
		var err error
		if alone, err = helped(sides[0]); err != nil {
			t.Fatal(err)
		}

		// Side 0 sweeps five times while side 1 sweeps too; the counters are
		// read when side 0 is done, and side 1 goes on alone.
		var wg sync.WaitGroup
		errs := make([]error, 2)
		done := make(chan struct{})
		run0, adopted0 := RangeBlocks()
		wg.Add(2)
		go func() {
			defer wg.Done()
			errs[0] = sweep(sides[0].e, sides[0].tr, 5)
			both = share(run0, adopted0)
			close(done)
		}()
		go func() {
			defer wg.Done()
			for errs[1] == nil {
				select {
				case <-done:
					after, errs[1] = helped(sides[1])
					return
				default:
					errs[1] = sweep(sides[1].e, sides[1].tr, 1)
				}
			}
		}()
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		measured = twoCPUsFree() // still free afterwards: the shares count
	}
	if !measured {
		t.Skip("the host did not keep two CPUs free for the length of a measurement")
	}

	t.Logf("adopted share: alone %.2f, two engines side by side %.2f, after one finished %.2f", alone, both, after)
	if alone < 0.25 || both > 0.15 || after < 0.25 {
		t.Errorf("adopted share alone %.2f (want >= 0.25), side by side %.2f (want <= 0.15), after one finished %.2f (want >= 0.25)",
			alone, both, after)
	}
}

// TestKernelPassesDoNotAllocate: a kernel call on a three-block engine
// allocates nothing and spawns nothing, helpers included (the count is the
// process's), class passes included. AllocsPerRun measures at GOMAXPROCS 1, but the executor keeps
// the value it noted when the engine was built, so the passes are still
// published and the helpers, taking turns on the one P, still adopt.
func TestKernelPassesDoNotAllocate(t *testing.T) {
	withProcs(t, 2)
	pat, m, tr := procsFixture(t, 550, 10, false)
	e, err := NewEngine(pat, m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := driveKernels(e, tr); err != nil { // helpers started, tiles sized
		t.Fatal(err)
	}
	_, adopted0 := RangeBlocks()
	passes := e.Meter.ClassPasses
	if n := testing.AllocsPerRun(20, func() {
		e.InvalidateAll() // the classes too: every newview runs a class pass
		if _, err := e.Evaluate(tr.Tips[0]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a cold Evaluate allocates %v times per run", n)
	}
	if e.Meter.ClassPasses == passes {
		t.Error("no class pass ran during the measurement")
	}
	edge := tr.Edges()[3]
	z0 := edge.Z
	if n := testing.AllocsPerRun(20, func() {
		edge.SetZ(z0)
		e.invalidate(edge, true) // e is not attached
		if _, _, err := e.MakeNewz(edge); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("MakeNewz allocates %v times per run", n)
	}
	if _, adopted := RangeBlocks(); adopted == adopted0 {
		t.Log("no block was adopted during the measurement")
	}
}
