package workload

import (
	"math/rand"
	"testing"

	"raxmlcell/internal/alignment"
	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/parsimony"
	"raxmlcell/internal/search"
	"raxmlcell/internal/seqsim"
)

func TestProfile42SCMatchesPaper(t *testing.T) {
	p := Profile42SC()
	nv := p.Classes[Newview]
	if nv.Count != 230500 {
		t.Errorf("newview count = %g, paper says 230,500", nv.Count)
	}
	if nv.PerCall.LoopFlops != 25554 {
		t.Errorf("newview flops = %g, paper says 25,554", nv.PerCall.LoopFlops)
	}
	if nv.PerCall.Exps != 150 {
		t.Errorf("newview exps = %g, paper says ~150", nv.PerCall.Exps)
	}
	if nv.PerCall.LoopIters != 228 {
		t.Errorf("newview loop iters = %g, paper says 228", nv.PerCall.LoopIters)
	}
	if p.DMABatchBytes != 2048 {
		t.Errorf("DMA buffer = %g, paper tuned 2 KB", p.DMABatchBytes)
	}
	total := 0.0
	for _, c := range p.Classes {
		total += c.Count
	}
	if total != 230500+46000+9500 {
		t.Errorf("total invocations = %g", total)
	}
	for c := Class(0); c < NumClasses; c++ {
		ops := p.Classes[c].PerCall
		if ops.ParallelFrac <= 0 || ops.ParallelFrac >= 1 {
			t.Errorf("%v parallel fraction %g out of (0,1)", c, ops.ParallelFrac)
		}
	}
	if p.NestedFrac <= 0 || p.NestedFrac >= 1 {
		t.Errorf("nested fraction %g", p.NestedFrac)
	}
}

func TestClassString(t *testing.T) {
	if Newview.String() != "newview" || Makenewz.String() != "makenewz" ||
		Evaluate.String() != "evaluate" || Class(9).String() == "" {
		t.Error("class names wrong")
	}
}

func TestFromMeterRealSearch(t *testing.T) {
	// Run a real (small) inference, convert its meter to a profile, and
	// check the profile is coherent.
	rng := rand.New(rand.NewSource(3))
	m := seqsim.DefaultModel()
	a, _, err := seqsim.Generate(seqsim.Params{Taxa: 10, Sites: 300, MeanBranch: 0.1}, m, rng)
	if err != nil {
		t.Fatal(err)
	}
	pat := alignment.Compress(a)
	start, err := parsimony.BuildStepwise(pat, rng)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := likelihood.NewEngine(pat, m, likelihood.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := search.Run(eng, start, search.Options{Radius: 3, MaxRounds: 2, SmoothPasses: 2, Epsilon: 0.05, AlphaOpt: true}); err != nil {
		t.Fatal(err)
	}

	prof, err := FromMeter("real-10taxa", &eng.Meter, pat.NumPatterns())
	if err != nil {
		t.Fatal(err)
	}
	if prof.Classes[Newview].Count != float64(eng.Meter.NewviewCalls) {
		t.Error("newview count not preserved")
	}
	if prof.Classes[Makenewz].Count != float64(eng.Meter.MakenewzCalls) {
		t.Error("makenewz count not preserved")
	}
	// Flop conservation: class totals must sum to the meter total.
	total := 0.0
	for c := Class(0); c < NumClasses; c++ {
		total += prof.Classes[c].Count * prof.Classes[c].PerCall.LoopFlops
	}
	meterTotal := float64(eng.Meter.Flops())
	if rel := (total - meterTotal) / meterTotal; rel > 0.01 || rel < -0.01 {
		t.Errorf("flop totals diverge: profile %.3g vs meter %.3g", total, meterTotal)
	}
	// Logs belong to evaluate only.
	if prof.Classes[Newview].PerCall.Logs != 0 || prof.Classes[Evaluate].PerCall.Logs == 0 {
		t.Error("log attribution wrong")
	}
	if prof.Classes[Newview].PerCall.ScaleChecks == 0 {
		t.Error("newview lost its scale checks")
	}
}

func TestFromMeterEmpty(t *testing.T) {
	var m likelihood.Meter
	if _, err := FromMeter("empty", &m, 100); err == nil {
		t.Error("empty meter accepted")
	}
}
