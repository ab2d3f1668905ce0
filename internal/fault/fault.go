// Package fault is a deterministic, seed-driven fault injector for the
// master-worker runtime: it decides, as a pure function of (injector seed,
// job seed, attempt), whether a job attempt crashes, hangs, slows down or
// returns a corrupted result, and whether a checkpoint write fails. Because
// every decision is a hash of its coordinates, a chaos run is exactly
// replayable from its seed — the property the chaos test suite relies on to
// assert that supervised runs reproduce fault-free results bit for bit.
//
// The package is covered by the raxmlvet simdeterminism analyzer: it draws
// from no wall clock and no global RNG. Randomness comes from a splitmix64
// hash of the decision coordinates, so decisions for different (job,
// attempt) pairs are independent yet individually reproducible, and the
// order in which workers ask for decisions cannot change them.
package fault

import (
	"errors"
	"fmt"
	"time"
)

// Kind enumerates the injectable fault classes, modelled on the failure
// modes a long MPI bootstrap campaign meets in practice.
type Kind int

const (
	// None: the attempt proceeds unmolested.
	None Kind = iota
	// Crash: the attempt dies immediately, as if its worker process was
	// lost; the supervisor sees an error and may retry.
	Crash
	// Hang: the attempt blocks until its stop signal fires (per-job
	// deadline or campaign abort) — the "silent node" failure mode deadline
	// detection exists for. The supervisor rejects a plan that hangs without
	// a deadline, so the worker pool can never wedge.
	Hang
	// SlowDown: the attempt waits Decision.Delay before doing real work,
	// exercising deadline headroom without changing the result.
	SlowDown
	// Corrupt: the attempt completes but its result payload is mangled
	// (truncated Newick or non-finite log-likelihood); result validation
	// must catch it and the supervisor must retry.
	Corrupt
	// CheckpointWrite: a checkpoint save on the master fails, exercising
	// the deferred-persistence path.
	CheckpointWrite
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Crash:
		return "crash"
	case Hang:
		return "hang"
	case SlowDown:
		return "slowdown"
	case Corrupt:
		return "corrupt"
	case CheckpointWrite:
		return "checkpoint-write"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ErrInjected is the root of every error produced by an injected fault, so
// supervision layers and tests can tell synthetic failures from real ones
// with errors.Is.
var ErrInjected = errors.New("fault: injected")

// Clock abstracts the time source of the supervision layer: deadlines,
// backoff waits and slow-down faults select on After beside a stop signal,
// so an abort ends them all. The simdeterminism invariant bars internal/mw
// and this package from the wall clock, so the real implementation lives in
// internal/wallclock and tests inject their own.
type Clock interface {
	// After returns a channel that receives after d elapses.
	After(d time.Duration) <-chan time.Time
}

// Config sets the per-attempt firing probability of each fault kind. The
// four job-fault probabilities are mutually exclusive per attempt (a single
// uniform draw is partitioned between them), so their sum must be <= 1.
type Config struct {
	Seed int64 // injector seed; same seed + same coordinates = same faults

	PCrash   float64 // P(attempt crashes)
	PHang    float64 // P(attempt hangs until its deadline)
	PSlow    float64 // P(attempt is delayed by SlowDelay)
	PCorrupt float64 // P(result payload is mangled)

	PCheckpoint float64 // P(one checkpoint write fails)

	SlowDelay time.Duration // duration a SlowDown fault waits (default 1ms)
}

// Injector hands out deterministic fault decisions. It is stateless after
// construction and safe for concurrent use by any number of workers.
type Injector struct {
	cfg Config
}

// New validates the configuration and builds an injector.
func New(cfg Config) (*Injector, error) {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"PCrash", cfg.PCrash}, {"PHang", cfg.PHang}, {"PSlow", cfg.PSlow},
		{"PCorrupt", cfg.PCorrupt}, {"PCheckpoint", cfg.PCheckpoint},
	} {
		if p.v < 0 || p.v > 1 {
			return nil, fmt.Errorf("fault: %s = %v outside [0,1]", p.name, p.v)
		}
	}
	if sum := cfg.PCrash + cfg.PHang + cfg.PSlow + cfg.PCorrupt; sum > 1 {
		return nil, fmt.Errorf("fault: job fault probabilities sum to %v > 1", sum)
	}
	if cfg.SlowDelay < 0 {
		return nil, fmt.Errorf("fault: negative SlowDelay %v", cfg.SlowDelay)
	}
	if cfg.SlowDelay == 0 {
		cfg.SlowDelay = time.Millisecond
	}
	return &Injector{cfg: cfg}, nil
}

// Decision is the fault selected for one job attempt.
type Decision struct {
	Kind  Kind
	Delay time.Duration // wait length for SlowDown
	Coin  uint64        // deterministic variant selector for the fault's flavour
}

// domain-separation salts so the per-purpose draws are independent streams.
const (
	saltJobDraw  = 0x6a6f6264726177 // "jobdraw"
	saltCoin     = 0x636f696e       // "coin"
	saltCkpt     = 0x636b7074       // "ckpt"
	saltJitter   = 0x6a697474       // "jitt"
	saltInjector = 0x696e6a65       // "inje"
)

// JobAttempt returns the fault for the given (job seed, attempt)
// coordinates; attempt is 1-based. The decision is a pure function of the
// injector seed and the coordinates.
func (in *Injector) JobAttempt(jobSeed int64, attempt int) Decision {
	u := unit(mix(saltInjector, uint64(in.cfg.Seed), saltJobDraw, uint64(jobSeed), uint64(attempt)))
	d := Decision{
		Coin: mix(saltInjector, uint64(in.cfg.Seed), saltCoin, uint64(jobSeed), uint64(attempt)),
	}
	cum := in.cfg.PCrash
	if u < cum {
		d.Kind = Crash
		return d
	}
	cum += in.cfg.PHang
	if u < cum {
		d.Kind = Hang
		return d
	}
	cum += in.cfg.PSlow
	if u < cum {
		d.Kind = SlowDown
		d.Delay = in.cfg.SlowDelay
		return d
	}
	cum += in.cfg.PCorrupt
	if u < cum {
		d.Kind = Corrupt
		return d
	}
	return d
}

// Hangs reports whether the plan can inject a Hang.
func (in *Injector) Hangs() bool { return in.cfg.PHang > 0 }

// CheckpointWrite reports whether the ordinal-th checkpoint save (1-based)
// should fail.
func (in *Injector) CheckpointWrite(ordinal int) bool {
	if in.cfg.PCheckpoint <= 0 {
		return false
	}
	return unit(mix(saltInjector, uint64(in.cfg.Seed), saltCkpt, uint64(ordinal))) < in.cfg.PCheckpoint
}

// Jitter returns a deterministic uniform draw in [0,1) keyed by (job seed,
// attempt) — the jitter source of the supervision backoff, kept here so the
// whole retry schedule is a pure function of the job seed.
func Jitter(jobSeed int64, attempt int) float64 {
	return unit(mix(saltJitter, uint64(jobSeed), uint64(attempt)))
}

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap,
// well-mixed 64-bit hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mix chains splitmix64 over the values, giving a hash of the coordinate
// tuple that is stable across runs and platforms.
func mix(vals ...uint64) uint64 {
	h := uint64(0x8a5cd789635d2dff)
	for _, v := range vals {
		h = splitmix64(h ^ v)
	}
	return h
}

// unit maps a 64-bit hash onto [0,1) with 53 bits of precision.
func unit(x uint64) float64 {
	return float64(x>>11) / (1 << 53)
}
