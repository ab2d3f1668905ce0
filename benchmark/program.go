package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/core"
	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/mw"
	"raxmlcell/internal/obs"
	"raxmlcell/internal/phylotree"
	"raxmlcell/internal/search"
	"raxmlcell/internal/wallclock"
)

// This file is the child process: the program under test. It sees only the
// files set-up wrote, runs operations on them in a closed loop with one
// client, and reports what each returned. Nothing here checks an answer;
// that is the parent's job (check.go).

// jobOutcome is one mw job of a campaign as the program reported it.
type jobOutcome struct {
	Kind   string
	Index  int
	Seed   int64
	LogL   float64
	Alpha  float64
	Newick string
	Err    string `json:",omitempty"`
}

// counts are the kernel meter totals of one operation.
type counts struct {
	Newview, Makenewz, Evaluate, NewtonIters uint64
	Flops, Bytes, CacheHits, SharedHits      uint64
}

func countsOf(m *likelihood.Meter) counts {
	return counts{
		Newview: m.NewviewCalls, Makenewz: m.MakenewzCalls, Evaluate: m.EvaluateCalls, NewtonIters: m.NewtonIters,
		Flops: m.Flops(), Bytes: m.BytesStreamed, CacheHits: m.CacheHits, SharedHits: m.SharedHits,
	}
}

// opResult is what one operation returned and what it cost.
type opResult struct {
	Input  int
	Seed   int64
	WallS  float64
	CPUS   float64
	LogL   float64
	Alpha  float64
	Newick string
	Rounds int
	Moves  int
	Counts counts
	// Campaign only.
	Jobs       []jobOutcome `json:",omitempty"`
	Attempts   int
	Retries    int
	Consensus  string `json:",omitempty"`
	Supports   int
	SupportMin float64
	SupportMax float64
	Err        string `json:",omitempty"`
}

// childResult is the whole report of one child process.
type childResult struct {
	Ops []opResult
	// Twin is the serial search of operation 0, run by the pooled workload
	// only: the parent checks that both found the same tree.
	Twin *opResult `json:",omitempty"`
	// Traced pass only.
	Traced   []opResult         `json:",omitempty"`
	Layers   map[string]float64 `json:",omitempty"`
	SelfS    map[string]float64 `json:",omitempty"`
	Findings []string           `json:",omitempty"`
	// Mismatch is set when a replayed job or a repeated traced operation
	// did not reproduce the first result exactly.
	Mismatch string `json:",omitempty"`
}

type program struct {
	w    workload
	seed int64
	dir  string
	// ownInstruments runs the campaign with the program's own registry and
	// a recording span tracer, for obs.instrumented_ratio.
	ownInstruments bool
}

func tracePath(dir string) string { return filepath.Join(dir, "trace.json") }

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// childMain runs the program side of one run and writes its report.
func childMain(o options) error {
	w, err := findWorkload(o.scale, o.workload)
	if err != nil {
		return err
	}
	p := &program{w: w, seed: o.seed, dir: o.dir}
	var res childResult
	if o.trace == 0 {
		res.Ops = p.timedLoop(o.seconds)
	} else {
		p.tracedPass(&res, o.seconds)
	}
	if w.kind == treeSearch && w.workers > 1 {
		serial := p.w
		serial.workers = 1
		twin := (&program{w: serial, seed: p.seed, dir: p.dir}).run(0, nil)
		res.Twin = &twin
		if res.Layers != nil {
			poolLayers(res.Layers, res.Ops, twin, w.workers)
		}
	}
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.dir, "child.json"), data, 0o644)
}

// timedLoop runs operations back to back, each on the next input, until
// the measured time is as close to seconds as whole operations allow.
func (p *program) timedLoop(seconds float64) []opResult {
	var ops []opResult
	start := time.Now()
	for i := 0; ; i++ {
		ops = append(ops, p.run(i, nil))
		elapsed := time.Since(start).Seconds()
		if elapsed+0.5*elapsed/float64(len(ops)) > seconds {
			return ops
		}
	}
}

// run executes operation i: from the PHYLIP bytes on disk to the Newick
// file written, timed as the user would time it.
func (p *program) run(i int, in *instruments) opResult {
	r := opResult{Input: i % p.w.inputs, Seed: p.w.opSeed(p.seed, i)}
	cpu0, t0 := cpuSeconds(), time.Now()
	root := in.begin("op")
	err := p.operate(&r, in)
	in.end(root)
	r.WallS, r.CPUS = time.Since(t0).Seconds(), cpuSeconds()-cpu0
	if err != nil {
		r.Err = err.Error()
	}
	return r
}

func (p *program) operate(r *opResult, in *instruments) error {
	pat, err := loadPatterns(phylipPath(p.dir, r.Input), in)
	if err != nil {
		return err
	}
	switch p.w.kind {
	case campaign:
		err = p.campaignOp(r, pat, in)
	case treeSearch:
		err = p.searchOp(r, pat, in)
	case fixedTree:
		err = p.fixedTreeOp(r, pat, in)
	}
	if err != nil {
		return err
	}
	id := in.begin("io.write_newick")
	defer in.end(id)
	out := r.Newick + "\n"
	if r.Consensus != "" {
		out += r.Consensus + "\n"
	}
	return os.WriteFile(filepath.Join(p.dir, "out.nwk"), []byte(out), 0o644)
}

func (p *program) checkpointPath() string { return filepath.Join(p.dir, "checkpoint.json") }

// campaignConfig is the analysis a user would run: 2 inferences and 6
// bootstraps on 2 workers from parsimony starts, checkpointing as it goes.
func (p *program) campaignConfig(seed int64, in *instruments) core.Config {
	cfg := core.Config{
		Inferences: inferences, Bootstraps: bootstraps, Seed: seed, Workers: p.w.workers,
		Alpha: startAlpha, Cats: gammaCats, StartTree: "parsimony", Retries: 1,
		Checkpoint: p.checkpointPath(),
		Search:     searchOptions(1),
		Kernel:     in.kernelConfig(""),
	}
	if p.ownInstruments {
		cfg.Metrics = obs.NewRegistry()
		cfg.Trace = obs.NewSpanTracer(wallclock.Monotonic()).Root("campaign")
	}
	return cfg
}

func (p *program) campaignOp(r *opResult, pat *alignment.Patterns, in *instruments) error {
	// A finished checkpoint would turn the analysis into a resume.
	if err := os.Remove(p.checkpointPath()); err != nil && !os.IsNotExist(err) {
		return err
	}
	// The search inside gets neither the progress hook nor the registry:
	// events of concurrent jobs carry no job identity, so the serial replay
	// attributes search phases and counts candidates instead.
	cfg := p.campaignConfig(r.Seed, in)
	id := in.begin("core.analyze")
	an, err := core.Analyze(pat, cfg)
	in.end(id)
	if err != nil {
		return err
	}
	fillCampaign(r, an)
	return nil
}

func fillCampaign(r *opResult, an *core.Analysis) {
	r.LogL, r.Alpha, r.Newick = an.BestLogL, an.Alpha, an.Best.Newick()
	r.Counts = countsOf(&an.Meter)
	r.Attempts, r.Retries = an.Stats.Attempts, an.Stats.Retries
	for _, j := range an.Results {
		o := jobOutcome{Kind: j.Job.Kind.String(), Index: j.Job.Index, Seed: j.Job.Seed, LogL: j.LogL, Alpha: j.Alpha, Newick: j.Newick}
		if j.Err != nil {
			o.Err = j.Err.Error()
		}
		r.Jobs = append(r.Jobs, o)
	}
	if an.Consensus != nil {
		r.Consensus = an.Consensus.Newick()
	}
	r.Supports = len(an.Support)
	r.SupportMin, r.SupportMax = math.Inf(1), math.Inf(-1)
	for _, s := range an.Support {
		r.SupportMin, r.SupportMax = math.Min(r.SupportMin, s), math.Max(r.SupportMax, s)
	}
	if r.Supports == 0 {
		r.SupportMin, r.SupportMax = 0, 0
	}
}

func (p *program) searchOp(r *opResult, pat *alignment.Patterns, in *instruments) error {
	cfg := core.Config{
		Seed: r.Seed, Alpha: startAlpha, Cats: gammaCats, StartTree: "random",
		Search: in.searchOptions(p.w.workers),
		Kernel: in.kernelConfig(""),
	}
	id := in.begin("core.infer_once")
	in.searchBegins()
	res, meter, err := core.InferOnce(pat, cfg)
	in.end(id)
	if err != nil {
		return err
	}
	r.LogL, r.Alpha, r.Newick = res.LogL, res.Alpha, res.Tree.Newick()
	r.Rounds, r.Moves = res.Rounds, res.Moves
	r.Counts = countsOf(meter)
	return nil
}

// fixedTreeOp optimises the branch lengths and alpha of the starting
// topology set-up wrote, with the smoothing budget a search round has.
func (p *program) fixedTreeOp(r *opResult, pat *alignment.Patterns, in *instruments) error {
	tr, err := p.readStartTree(r.Input, pat, in)
	if err != nil {
		return err
	}
	id := in.begin("likelihood.new_engine")
	mod, err := core.ModelFor(pat, startAlpha, gammaCats)
	var eng *likelihood.Engine
	if err == nil {
		eng, err = likelihood.NewEngine(pat, mod, in.kernelConfig(""))
	}
	in.end(id)
	if err != nil {
		return err
	}
	opt := searchOptions(1)
	id = in.begin("search.smooth_branches")
	_, err = search.SmoothBranches(eng, tr, opt.SmoothPasses, opt.Epsilon)
	in.end(id)
	if err != nil {
		return err
	}
	id = in.begin("search.optimize_alpha")
	r.Alpha, _, err = search.OptimizeAlpha(eng, tr, 0.02, 50, 1e-2)
	in.end(id)
	if err != nil {
		return err
	}
	id = in.begin("likelihood.evaluate")
	r.LogL, err = eng.Evaluate(tr.Tips[0])
	in.end(id)
	if err != nil {
		return err
	}
	r.Newick = tr.Newick()
	r.Counts = countsOf(&eng.Meter)
	return nil
}

func (p *program) readStartTree(i int, pat *alignment.Patterns, in *instruments) (*phylotree.Tree, error) {
	data, err := os.ReadFile(startPath(p.dir, i))
	if err != nil {
		return nil, err
	}
	id := in.begin("phylotree.parse_newick")
	defer in.end(id)
	return parseAligned(pat, string(data))
}

// memStats reads the allocator totals a traced operation is bracketed by.
func memStats() (allocBytes uint64, gcCPU float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, gcCPUSeconds()
}

// sameResult reports whether two runs of one operation agree exactly: the
// counts, the trajectory and the bits of the log-likelihood.
func sameResult(a, b opResult) string {
	if a.Counts != b.Counts {
		return fmt.Sprintf("kernel counts differ: %+v vs %+v", a.Counts, b.Counts)
	}
	if a.Rounds != b.Rounds || a.Moves != b.Moves {
		return fmt.Sprintf("trajectory differs: %d rounds %d moves vs %d rounds %d moves", a.Rounds, a.Moves, b.Rounds, b.Moves)
	}
	if math.Float64bits(a.LogL) != math.Float64bits(b.LogL) {
		return fmt.Sprintf("logL differs: %v vs %v", a.LogL, b.LogL)
	}
	return ""
}

// replayCampaign runs the campaign's jobs one after another through the four
// public calls mw makes for each, so that job time is attributed exactly,
// and returns the first disagreement with what the campaign reported.
func (p *program) replayCampaign(pat *alignment.Patterns, seed int64, reported []jobOutcome, in *instruments) (rounds, moves int, mismatch string, err error) {
	mod, err := core.ModelFor(pat, startAlpha, gammaCats)
	if err != nil {
		return 0, 0, "", err
	}
	jobs := mw.Plan(inferences, bootstraps, seed)
	if len(jobs) != len(reported) {
		return 0, 0, fmt.Sprintf("plan has %d jobs, campaign reported %d", len(jobs), len(reported)), nil
	}
	for i, job := range jobs {
		root := in.begin("mw.replay_job")
		out, err := replayJob(pat, mod, job, in)
		in.end(root)
		if err != nil {
			return 0, 0, "", err
		}
		rounds, moves = rounds+out.Rounds, moves+out.Moves
		if mismatch == "" && math.Float64bits(out.LogL) != math.Float64bits(reported[i].LogL) {
			mismatch = fmt.Sprintf("replayed %s %d logL %v, campaign reported %v", job.Kind, job.Index, out.LogL, reported[i].LogL)
		}
	}
	return rounds, moves, mismatch, nil
}
