package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/core"
	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/model"
	"raxmlcell/internal/mw"
	"raxmlcell/internal/phylotree"
	"raxmlcell/internal/search"
)

// This file is the traced pass of the child: operation 0 repeated, untraced
// as the base and under the runner's instruments in turn, and then direct
// calls into single layers. Its numbers are
// reported as per-layer metrics and never enter the end-to-end ones.

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio is a/b, and 0 when b is 0: a layer that did nothing on this
// workload reports 0 everywhere.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// medianOf returns the median of f over the operations that succeeded.
func medianOf(ops []opResult, f func(opResult) float64) float64 {
	var v []float64
	for _, o := range ops {
		if o.Err == "" {
			v = append(v, f(o))
		}
	}
	return median(v)
}

func wallOf(o opResult) float64 { return o.WallS }
func cpuOf(o opResult) float64  { return o.CPUS }

// pairedRatio is the median of a[i]/b[i] in wall time over the repetitions
// where both succeeded. a[i] and b[i] ran one after the other, so a slow
// spell of the host falls on both sides of a ratio.
func pairedRatio(a, b []opResult) float64 {
	var v []float64
	for i := range a {
		if a[i].Err == "" && b[i].Err == "" {
			v = append(v, ratio(a[i].WallS, b[i].WallS))
		}
	}
	return median(v)
}

func (p *program) tracedPass(res *childResult, seconds float64) {
	w := p.w
	// Each repetition runs operation 0 untraced, traced and, for a campaign,
	// with the program's own instruments, for half the run's time and at
	// least twice; the direct calls into single layers take the rest. The
	// layer table is read from the first traced repetition.
	own := *p
	own.ownInstruments = true
	var in *instruments
	var allocBytes uint64
	var gcCPU float64
	var instrumented []opResult
	for rep, start := 0, time.Now(); rep < 2 || time.Since(start).Seconds() < seconds/2; rep++ {
		res.Ops = append(res.Ops, p.run(0, nil))
		ti := newInstruments()
		alloc0, gc0 := memStats()
		r := p.run(0, ti)
		if rep == 0 {
			alloc1, gc1 := memStats()
			in, allocBytes, gcCPU = ti, alloc1-alloc0, gc1-gc0
		}
		res.Traced = append(res.Traced, r)
		if w.kind == campaign {
			r := own.run(0, nil)
			if r.Err != "" {
				res.Mismatch = "instrumented analysis: " + r.Err
			}
			instrumented = append(instrumented, r)
		}
	}
	baseWall, baseCPU := medianOf(res.Ops, wallOf), medianOf(res.Ops, cpuOf)
	traced := res.Traced[0]
	kern := in.kern.totals()
	if traced.Err != "" {
		return
	}
	if w.workers == 1 {
		for _, again := range res.Traced[1:] {
			if msg := sameResult(traced, again); msg != "" {
				res.Mismatch = "traced operation repeated: " + msg
			}
		}
	}

	L := map[string]float64{}
	res.Layers = L
	root := in.spans[in.root(1)]
	capacity := float64(w.workers) * root.dur().Seconds()

	parse, _, _ := in.total("alignment.parse")
	compress, _, _ := in.total("alignment.compress")
	L["alignment.parse_ms"], L["alignment.compress_ms"] = ms(parse), ms(compress)

	c := traced.Counts
	L["likelihood.newview_calls"] = float64(c.Newview)
	L["likelihood.makenewz_calls"] = float64(c.Makenewz)
	L["likelihood.evaluate_calls"] = float64(c.Evaluate)
	L["likelihood.newton_iters"] = float64(c.NewtonIters)
	L["likelihood.flops"] = float64(c.Flops)
	L["likelihood.bytes_streamed_computed"] = float64(c.Bytes)
	L["likelihood.cache_hits"] = float64(c.CacheHits)
	L["likelihood.shared_hits"] = float64(c.SharedHits)
	L["likelihood.newviews_per_makenewz"] = ratio(float64(c.Newview), float64(c.Makenewz))
	L["likelihood.newview_busy_s"] = time.Duration(kern.ns[likelihood.OpNewview]).Seconds()
	L["likelihood.makenewz_busy_s"] = time.Duration(kern.ns[likelihood.OpMakenewz]).Seconds()
	L["likelihood.evaluate_busy_s"] = time.Duration(kern.ns[likelihood.OpEvaluate]).Seconds()
	L["likelihood.kernel_share"] = ratio(kern.busy().Seconds(), capacity)

	L["core.cpu_utilisation"] = ratio(baseCPU, baseWall*float64(w.workers))
	L["core.alloc_mb"] = float64(allocBytes) / (1 << 20)
	L["core.gc_cpu_share"] = ratio(gcCPU, traced.CPUS)
	L["core.unattributed_share"] = 1 - ratio(in.attributed(1, w.workers).Seconds(), capacity)
	L["obs.tracing_overhead"] = pairedRatio(res.Traced, res.Ops)
	L["obs.instrumented_ratio"] = pairedRatio(instrumented, res.Ops)
	if u := L["core.unattributed_share"]; u > 0.05 {
		res.Findings = append(res.Findings, fmt.Sprintf(
			"%.1f%% of %d workers x %.3f s is not attributed to a named call or a kernel: idle workers or orchestration", 100*u, w.workers, root.dur().Seconds()))
	}

	pat, err := loadPatterns(phylipPath(p.dir, 0), nil)
	if err != nil {
		res.Mismatch = err.Error()
		return
	}
	L["alignment.patterns"] = float64(pat.NumPatterns())
	if err := p.layerCalls(res, pat, traced, in); err != nil {
		res.Mismatch = err.Error()
	}

	searchSpans := map[kind][]string{
		campaign:   {"search.run"},
		treeSearch: {"core.infer_once"},
		fixedTree:  {"search.smooth_branches", "search.optimize_alpha", "likelihood.evaluate"},
	}[w.kind]
	searchWorkers := 1
	if w.kind == treeSearch {
		searchWorkers = w.workers
	}
	wall, kernel, _ := in.total(searchSpans...)
	self := wall.Seconds() - kernel.Seconds()/float64(searchWorkers)
	L["search.self_s"], L["search.self_share"] = self, ratio(self, wall.Seconds())
	L["search.round_ms_median"] = ms(median(in.rounds))
	if cand, ok := in.counter("search.candidates_scored"); ok {
		L["search.candidates_scored"] = cand
		L["search.candidates_per_s"] = ratio(cand, wall.Seconds())
	}
	if hits, ok := in.counter("cache.topo_hits"); ok {
		L["search.topo_memo_hits"] = hits
	}
	L["parsimony.start_tree_ms"] = ms(median(in.parsCal))

	res.SelfS = in.selfSeconds()
	if err := in.writeTrace(tracePath(p.dir), w.name); err != nil {
		res.Mismatch = err.Error()
	}
}

// layerCalls makes the direct calls of the traced pass: the kernel
// micro-cells of every backend and, for a campaign, the checkpoint read
// path, the serial replay and the consensus.
func (p *program) layerCalls(res *childResult, pat *alignment.Patterns, traced opResult, in *instruments) error {
	L := res.Layers
	L["search.rounds"], L["search.moves"] = float64(traced.Rounds), float64(traced.Moves)

	// The micro-cells run on a parsimony tree, or on the starting tree the
	// operation itself read where it has one.
	start, err := in.startingTree(pat, rand.New(rand.NewSource(traced.Seed)))
	if err == nil && p.w.kind == fixedTree {
		start, err = p.readStartTree(0, pat, nil)
	}
	if err != nil {
		return err
	}
	for _, backend := range likelihood.Backends() {
		if err := microCell(L, backend, pat, start.Clone(), in); err != nil {
			return err
		}
	}
	if p.w.kind != campaign {
		return nil
	}

	L["mw.jobs"] = float64(len(traced.Jobs))
	L["mw.attempts"], L["mw.retries"] = float64(traced.Attempts), float64(traced.Retries)
	if st, err := os.Stat(p.checkpointPath()); err == nil {
		L["mw.checkpoint_bytes"] = float64(st.Size())
	}
	id := in.begin("mw.load_checkpoint")
	_, err = mw.LoadCheckpoint(p.checkpointPath())
	in.end(id)
	if err != nil {
		return err
	}
	L["mw.checkpoint_load_ms"] = ms(in.spans[id].dur())

	// A second analysis over the finished checkpoint runs no job: it is
	// the read path beside the write path the operation timed.
	id = in.begin("mw.resume")
	_, err = core.Analyze(pat, p.campaignConfig(traced.Seed, nil))
	in.end(id)
	if err != nil {
		return err
	}
	L["mw.resume_ms"] = ms(in.spans[id].dur())

	rounds, moves, mismatch, err := p.replayCampaign(pat, traced.Seed, traced.Jobs, in)
	if err != nil {
		return err
	}
	if mismatch != "" {
		res.Mismatch = mismatch
	}
	L["search.rounds"], L["search.moves"] = float64(rounds), float64(moves)
	replay, _, _ := in.total("mw.replay_job")
	resample, _, n := in.total("alignment.bootstrap_replicate")
	L["mw.replay_work_s"] = replay.Seconds()
	L["alignment.bootstrap_replicate_us"] = ratio(us(resample), float64(n))

	consensus, distinct, err := consensusCall(pat, traced, in)
	if err != nil {
		return err
	}
	L["phylotree.consensus_ms"], L["phylotree.distinct_topologies"] = ms(consensus), float64(distinct)
	analyze, _, _ := in.total("core.analyze")
	L["mw.overhead_s"] = float64(p.w.workers)*analyze.Seconds() - replay.Seconds() - consensus.Seconds()

	id = in.begin("phylotree.newick_roundtrip")
	tr, err := phylotree.ParseNewick(traced.Newick)
	if err == nil {
		_ = tr.Newick()
	}
	in.end(id)
	if err != nil {
		return err
	}
	L["phylotree.newick_roundtrip_us"] = us(in.spans[id].dur())
	return nil
}

// startingTree times one parsimony starting tree.
func (in *instruments) startingTree(pat *alignment.Patterns, rng *rand.Rand) (*phylotree.Tree, error) {
	id := in.begin("parsimony.start_tree")
	tr, err := search.StartingTree(pat, "parsimony", rng)
	in.end(id)
	in.parsCal = append(in.parsCal, in.spans[id].dur())
	return tr, err
}

// microCell times the three kernels of one backend on a fixed tree: two
// smoothing passes, one evaluation and, on the default backend, one alpha
// fit. Per-pattern times are busy time over calls x patterns; the
// evaluation's own time is its span minus the newviews inside it, which the
// runner can tell apart because it makes the call itself.
func microCell(L map[string]float64, backend string, pat *alignment.Patterns, tr *phylotree.Tree, in *instruments) error {
	mod, err := core.ModelFor(pat, startAlpha, gammaCats)
	if err != nil {
		return err
	}
	eng, err := likelihood.NewEngine(pat, mod, in.kernelConfig(backend))
	if err != nil {
		return err
	}
	root := in.begin("micro." + backend)
	defer in.end(root)
	k0 := in.kern.totals()
	var smooth time.Duration
	for pass := 0; pass < 2; pass++ {
		id := in.begin("micro.smooth_pass")
		_, err := search.SmoothBranches(eng, tr, 1, 0.01)
		in.end(id)
		if err != nil {
			return err
		}
		smooth += in.spans[id].dur()
	}
	k1 := in.kern.totals()
	id := in.begin("micro.evaluate")
	_, err = eng.Evaluate(tr.Tips[0])
	in.end(id)
	if err != nil {
		return err
	}
	d, e := k1.sub(k0), in.kern.totals().sub(k1)
	evalOwn := float64(e.ns[likelihood.OpEvaluate] - e.ns[likelihood.OpNewview])
	npat := float64(pat.NumPatterns())
	pre := "likelihood." + backend + "."
	L[pre+"newview_ns_per_pattern"] = ratio(float64(d.ns[likelihood.OpNewview]), float64(d.calls[likelihood.OpNewview])*npat)
	L[pre+"makenewz_ns_per_pattern"] = ratio(float64(d.ns[likelihood.OpMakenewz]), float64(d.calls[likelihood.OpMakenewz])*npat)
	L[pre+"evaluate_ns_per_pattern"] = ratio(evalOwn, npat)
	busyNs := float64(d.busy()) + float64(e.ns[likelihood.OpNewview]) + evalOwn
	L[pre+"gflops"] = ratio(float64(eng.Meter.Flops()), busyNs)
	if backend != (likelihood.Config{}).BackendName() {
		return nil
	}
	L["likelihood.flops_per_byte_computed"] = ratio(float64(eng.Meter.Flops()), float64(eng.Meter.BytesStreamed))
	L["search.smooth_ms"] = ms(smooth) / 2
	id = in.begin("micro.optimize_alpha")
	_, _, err = search.OptimizeAlpha(eng, tr, 0.02, 50, 1e-2)
	in.end(id)
	L["search.alpha_opt_ms"] = ms(in.spans[id].dur())
	return err
}

// replayJob is mw's runJob through public calls: resample, allocate the
// engine, build the starting tree, search.
func replayJob(pat *alignment.Patterns, mod *model.Model, job mw.Job, in *instruments) (*search.Result, error) {
	rng := rand.New(rand.NewSource(job.Seed))
	work := pat
	if job.Kind == mw.Bootstrap {
		id := in.begin("alignment.bootstrap_replicate")
		work = alignment.BootstrapReplicate(pat, rng)
		in.end(id)
	}
	id := in.begin("likelihood.new_engine")
	eng, err := likelihood.NewEngine(work, mod, in.kernelConfig(""))
	in.end(id)
	if err != nil {
		return nil, err
	}
	start, err := in.startingTree(work, rng)
	if err != nil {
		return nil, err
	}
	id = in.begin("search.run")
	in.searchBegins()
	out, err := search.Run(eng, start, in.searchOptions(1))
	in.end(id)
	return out, err
}

// consensusCall repeats the campaign's post-processing on the trees it
// returned: dedup, support on the best tree, majority-rule consensus.
func consensusCall(pat *alignment.Patterns, r opResult, in *instruments) (time.Duration, int, error) {
	id := in.begin("phylotree.consensus")
	defer in.end(id)
	best, err := parseAligned(pat, r.Newick)
	if err != nil {
		return 0, 0, err
	}
	var boots []*phylotree.Tree
	for _, j := range r.Jobs {
		if j.Kind != mw.Bootstrap.String() || j.Err != "" {
			continue
		}
		tr, err := parseAligned(pat, j.Newick)
		if err != nil {
			return 0, 0, err
		}
		boots = append(boots, tr)
	}
	uniq, weights, err := phylotree.DedupTopologies(boots)
	if err != nil {
		return 0, 0, err
	}
	if _, err := phylotree.SupportValuesWeighted(best, uniq, weights); err != nil {
		return 0, 0, err
	}
	if _, err := phylotree.MajorityRuleConsensusWeighted(uniq, weights, 0.5); err != nil {
		return 0, 0, err
	}
	return in.now() - in.spans[id].Start, len(uniq), nil
}

// poolLayers compares the pooled search with its serial twin. On a host
// with fewer processors than workers the speed-up would be noise, so it is
// left out.
func poolLayers(L map[string]float64, ops []opResult, twin opResult, workers int) {
	if twin.Err != "" || len(ops) == 0 {
		return
	}
	if runtime.GOMAXPROCS(0) >= workers {
		L["search.pool_speedup"] = ratio(twin.WallS, medianOf(ops, wallOf))
	}
	L["search.pool_newview_ratio"] = ratio(float64(ops[0].Counts.Newview), float64(twin.Counts.Newview))
	L["search.pool_cpu_ratio"] = ratio(medianOf(ops, cpuOf), twin.CPUS)
}
