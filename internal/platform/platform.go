// Package platform provides the analytic execution-time models for the two
// comparison machines of the paper's Section 6 — a 2-way SMP of Intel
// Pentium 4 Xeons with HyperThreading (2 GHz) and an IBM Power5 (1.65 GHz,
// two cores, two SMT threads each) — used to regenerate Figure 3.
//
// Both machines run the MPI master-worker code: B independent tree searches
// spread over the machine's hardware contexts. The models capture the two
// effects that determine the figure's shape: per-search single-thread time
// and the SMT slowdown when both contexts of a core are busy. Absolute
// single-thread times are calibrated so the published cross-machine ratios
// hold (Cell ~9-10% faster than Power5, more than 2x faster than the Xeon
// pair).
package platform

import (
	"fmt"
	"math"
)

// Platform is one comparison machine.
type Platform struct {
	Name          string
	Cores         int     // physical cores across the machine
	ThreadsPerCor int     // SMT contexts per core
	SearchSeconds float64 // one tree search, single-threaded, no contention
	SMTFactor     float64 // per-search slowdown when a core runs 2 contexts
}

// Xeon2GHzPair models the paper's Xeon platform: two 2 GHz Pentium 4 Xeon
// processors with HyperThreading on a 4-way Dell PowerEdge 6650 (the paper
// deliberately gives the Xeon two processors, "favoring the Xeon platform").
func Xeon2GHzPair() Platform {
	return Platform{
		Name:          "Intel Xeon (2x 2GHz, HT)",
		Cores:         2,
		ThreadsPerCor: 2,
		SearchSeconds: 40.0,
		SMTFactor:     1.13,
	}
}

// Power5 models the 1.65 GHz dual-core, 2-way-SMT IBM Power5.
func Power5() Platform {
	return Platform{
		Name:          "IBM Power5 (2 cores, 2x SMT, 1.65GHz)",
		Cores:         2,
		ThreadsPerCor: 2,
		SearchSeconds: 19.5,
		SMTFactor:     1.16,
	}
}

// Contexts returns the machine's total hardware thread count.
func (p Platform) Contexts() int { return p.Cores * p.ThreadsPerCor }

// Makespan estimates the wall-clock seconds to complete b independent
// searches with the master-worker scheme: searches are dealt evenly over
// the hardware contexts; a core running both of its contexts executes each
// at the SMT penalty. Single-context cores run at full speed, so small b
// avoids the penalty entirely.
func (p Platform) Makespan(b int) (float64, error) {
	if b <= 0 {
		return 0, fmt.Errorf("platform: %d searches", b)
	}
	contexts := p.Contexts()
	if b <= p.Cores {
		// One search per core: no SMT sharing; one full round each.
		return p.SearchSeconds, nil
	}
	// Greedy deal over all contexts; every active pair pays the SMT factor.
	perContext := int(math.Ceil(float64(b) / float64(contexts)))
	return float64(perContext) * p.SearchSeconds * p.SMTFactor, nil
}
