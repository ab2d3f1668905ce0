package search

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"raxmlcell/internal/likelihood"
)

// kernelTally counts an engine's kernel calls and fires cancel at call at.
type kernelTally struct {
	calls  int
	at     int
	cancel func()
}

func (k *kernelTally) ObserveKernel(likelihood.KernelOp, time.Duration) {
	if k.calls++; k.calls == k.at {
		k.cancel()
	}
}

// checkLog is a context that records, at each of the search's stop checks,
// how many kernel calls had run.
type checkLog struct {
	context.Context
	tally  *kernelTally
	checks []int
}

func (c *checkLog) Done() <-chan struct{} {
	c.checks = append(c.checks, c.tally.calls)
	return c.Context.Done()
}

// TestRunContextStopsWithinOneCheck: cancelled in the middle of any kernel
// call, RunContext makes no more kernel calls than the longest stretch
// between two of its stop checks in an uncancelled run (one prune, smoothing
// solve or Brent evaluation), and returns the signal's cause itself. An
// uncancelled RunContext is Run, bit for bit.
func TestRunContextStopsWithinOneCheck(t *testing.T) {
	pat, _, m := simulated(t, 23, 10, 300)
	opts := DefaultOptions()
	opts.ModelOpt = true
	errStopTest := errors.New("stop test")
	run := func(at int) (*checkLog, *Result, error) {
		ctx, cancel := context.WithCancelCause(context.Background())
		defer cancel(nil)
		tally := &kernelTally{at: at, cancel: func() { cancel(errStopTest) }}
		eng, err := likelihood.NewEngine(pat, m, likelihood.Config{Observer: tally, Now: func() time.Duration { return 0 }})
		if err != nil {
			t.Fatal(err)
		}
		start, err := StartingTree(pat, "random", rand.New(rand.NewSource(23)))
		if err != nil {
			t.Fatal(err)
		}
		log := &checkLog{Context: ctx, tally: tally}
		res, err := RunContext(log, eng, start, opts)
		return log, res, err
	}

	ref, res, err := run(0)
	if err != nil {
		t.Fatal(err)
	}
	total := ref.tally.calls
	gap := 0
	for i := 1; i < len(ref.checks); i++ {
		gap = max(gap, ref.checks[i]-ref.checks[i-1])
	}
	t.Logf("%d kernel calls, %d stop checks, at most %d calls between two", total, len(ref.checks), gap)

	eng, err := likelihood.NewEngine(pat, m, likelihood.Config{})
	if err != nil {
		t.Fatal(err)
	}
	start, err := StartingTree(pat, "random", rand.New(rand.NewSource(23)))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Run(eng, start, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Tree.Newick() != res.Tree.Newick() || math.Float64bits(plain.LogL) != math.Float64bits(res.LogL) {
		t.Errorf("RunContext without a signal differs from Run")
	}

	for at := 1; at < total; at += total/17 + 1 {
		log, res, err := run(at)
		if err != errStopTest || res != nil {
			t.Errorf("cancelled at kernel call %d: result %v, error %v, want the cause", at, res != nil, err)
		}
		if after := log.tally.calls - at; after > gap {
			t.Errorf("cancelled at kernel call %d of %d: %d more calls, the longest stretch between checks is %d", at, total, after, gap)
		}
	}
}
