// Package workload describes the RAxML kernel workload that the Cell
// runtime (internal/cellrt) schedules and charges for. A Profile captures
// one full tree search (one bootstrap or inference) as per-kernel-class
// invocation counts and per-invocation operation vectors.
//
// Two sources produce Profiles:
//
//   - Profile42SC() encodes the paper's own published measurements of the
//     42_SC input (230,500 newview invocations, 25,554 flops and ~150 exp()
//     calls per invocation, 228-pattern loops, 2 KB strip-mining buffers),
//     anchored against Table 1a's PPE-only runtime. This is what the table
//     reproductions replay.
//
//   - FromMeter converts a real measured likelihood.Meter from an actual Go
//     tree search into a Profile, tying the simulator to the living
//     implementation.
package workload

import (
	"fmt"

	"raxmlcell/internal/likelihood"
)

// Class identifies one of the three offloadable kernels.
type Class int

const (
	Newview Class = iota
	Makenewz
	Evaluate
	NumClasses
)

func (c Class) String() string {
	switch c {
	case Newview:
		return "newview"
	case Makenewz:
		return "makenewz"
	case Evaluate:
		return "evaluate"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Ops is the per-invocation operation vector of one kernel class.
type Ops struct {
	LoopFlops   float64 // DP flops in the vectorizable likelihood loops
	Exps        float64 // exponential calls (transition-matrix small loop)
	Logs        float64 // logarithm calls (evaluate)
	ScaleChecks float64 // executions of the 8-condition scaling if()
	ScaleEvents float64 // times the scaling body runs
	LoopIters   float64 // big-loop trip count (pattern count)
	Bytes       float64 // likelihood-vector bytes strip-mined through LS

	// OverheadSPE covers everything the op counts above do not: local-store
	// addressing, loop bookkeeping, loads/stores, function dispatch. The
	// ParallelFrac share of (OverheadSPE + loop work) distributes across
	// SPEs under loop-level parallelization; the rest is serial per call.
	OverheadSPE  float64
	OverheadPPE  float64
	ParallelFrac float64
}

// ClassProfile is an invocation class within one search.
type ClassProfile struct {
	Count   float64
	PerCall Ops
}

// Profile is one full tree search.
type Profile struct {
	Name    string
	Classes [NumClasses]ClassProfile

	// NestedFrac is the fraction of newview invocations made from inside
	// makenewz/evaluate; when all three functions live on the SPE those
	// calls need no PPE round trip (Section 5.2.7).
	NestedFrac float64

	// OrchestrationCycles is per-search PPE work that is never offloaded:
	// tree surgery, the search heuristic, MPI bookkeeping, I/O.
	OrchestrationCycles float64

	// DMABatchBytes is the strip-mining buffer size (the paper tuned 2 KB).
	DMABatchBytes float64
}

// Profile42SC reproduces the paper's measured 42_SC workload. The operation
// counts are the paper's own; the overhead constants are fitted so that the
// stage-by-stage runtimes of Tables 1-7 follow from the cost model in
// internal/cell (see EXPERIMENTS.md for the fit).
func Profile42SC() Profile {
	return Profile{
		Name: "42_SC",
		Classes: [NumClasses]ClassProfile{
			Newview: {
				Count: 230500,
				PerCall: Ops{
					LoopFlops:    25554,
					Exps:         150,
					ScaleChecks:  228,
					ScaleEvents:  2,
					LoopIters:    228,
					Bytes:        228 * 128, // three 4-double-per-category vectors + padding
					OverheadSPE:  226000,
					OverheadPPE:  0,
					ParallelFrac: 0.55,
				},
			},
			Makenewz: {
				Count: 46000,
				PerCall: Ops{
					LoopFlops: 60000, // sum table + ~5 Newton iterations
					Exps:      80,
					LoopIters: 228,
					Bytes:     2 * 228 * 128,
					// Newton's branchy control flow is disproportionately
					// expensive on the in-order PPE (OverheadPPE) while the
					// sum-table loops vectorize well on the SPE.
					OverheadSPE:  30000,
					OverheadPPE:  360000,
					ParallelFrac: 0.6,
				},
			},
			Evaluate: {
				Count: 9500,
				PerCall: Ops{
					LoopFlops:    20000,
					Exps:         32,
					Logs:         228,
					LoopIters:    228,
					Bytes:        228 * 128,
					OverheadSPE:  30000,
					OverheadPPE:  120000,
					ParallelFrac: 0.6,
				},
			},
		},
		NestedFrac:          0.6,
		OrchestrationCycles: 7.7e9, // ~2.4 s at 3.2 GHz, always on the PPE
		DMABatchBytes:       2048,
	}
}

// FromMeter summarizes a real measured search into a Profile, distributing
// the meter's aggregate op counts over the recorded invocation counts. The
// overhead constants are taken from the reference 42_SC profile scaled by
// the pattern count, since they model per-iteration bookkeeping the meter
// does not count.
func FromMeter(name string, m *likelihood.Meter, patterns int) (Profile, error) {
	if m.NewviewCalls == 0 {
		return Profile{}, fmt.Errorf("workload: meter has no newview calls")
	}
	ref := Profile42SC()
	scale := float64(patterns) / 228.0
	p := Profile{
		Name:                name,
		NestedFrac:          ref.NestedFrac,
		OrchestrationCycles: ref.OrchestrationCycles,
		DMABatchBytes:       ref.DMABatchBytes,
	}

	nv := float64(m.NewviewCalls)
	counts := [NumClasses]float64{
		Newview:  nv,
		Makenewz: float64(m.MakenewzCalls),
		Evaluate: float64(m.EvaluateCalls),
	}
	// The meter aggregates ops across all kernels; attribute the loop work
	// to the classes that actually ran, in proportion to the reference
	// profile, preserving the real call counts and real totals.
	refFlops := [NumClasses]float64{}
	refTotal := 0.0
	for c := Class(0); c < NumClasses; c++ {
		if counts[c] > 0 {
			refFlops[c] = ref.Classes[c].Count * ref.Classes[c].PerCall.LoopFlops
			refTotal += refFlops[c]
		}
	}
	totalFlops := float64(m.Flops())
	// Logarithms come from evaluate's per-site log and makenewz's Newton
	// iterations; attribute them to evaluate when it ran, else to makenewz.
	logOwner := Evaluate
	if counts[Evaluate] == 0 {
		logOwner = Makenewz
	}
	for c := Class(0); c < NumClasses; c++ {
		if counts[c] == 0 {
			continue
		}
		share := refFlops[c] / refTotal
		refOps := ref.Classes[c].PerCall
		ops := Ops{
			LoopFlops:    totalFlops * share / counts[c],
			Exps:         float64(m.Exps) * share / counts[c],
			LoopIters:    float64(patterns),
			Bytes:        float64(m.BytesStreamed) * share / counts[c],
			OverheadSPE:  refOps.OverheadSPE * scale,
			OverheadPPE:  refOps.OverheadPPE,
			ParallelFrac: refOps.ParallelFrac,
		}
		if c == Newview {
			ops.ScaleChecks = float64(m.ScaleChecks) / nv
			ops.ScaleEvents = float64(m.ScaleEvents) / nv
		}
		if c == logOwner {
			ops.Logs = float64(m.Logs) / counts[c]
		}
		p.Classes[c] = ClassProfile{Count: counts[c], PerCall: ops}
	}
	return p, nil
}
