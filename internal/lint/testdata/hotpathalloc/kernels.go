// Golden input for the hotpathalloc analyzer: this file pretends to live in
// raxmlcell/internal/likelihood. Functions whose names contain
// combine/newview/makenewz/evaluate/tile/sumtable/newton are kernels (the
// last three cover the compute-backend range methods and their tile
// helpers), and so are the range executor's runpass/runblock/adopt/await/
// help and the repeat-class pass (classpass); allocations in their loops or
// closures and go statements are reported.
package likelihood

import "fmt"

func combineLoopAllocs(pats int) []float64 {
	var out []float64
	for pat := 0; pat < pats; pat++ {
		out = append(out, float64(pat)) // want `append inside a per-pattern loop`
		buf := make([]float64, 4)       // want `make allocates inside a per-pattern loop`
		tmp := []float64{1, 2}          // want `slice/map literal allocates inside a per-pattern loop`
		_ = fmt.Sprintf("%d", pat)      // want `fmt.Sprintf inside a per-pattern loop`
		out[pat] += buf[0] + tmp[0]
	}
	return out
}

func makenewzClosureAlloc(n int) float64 {
	likelihoodAt := func(t float64) float64 {
		buf := make([]float64, 4) // want `make allocates inside a per-iteration closure`
		return buf[0] + t
	}
	s := 0.0
	for i := 0; i < n; i++ {
		s += likelihoodAt(float64(i))
	}
	return s
}

func newviewPreallocated(pats int) []float64 {
	out := make([]float64, pats) // allocation outside any loop: allowed
	var scratch [4]float64       // fixed-size array: stack, allowed
	for pat := 0; pat < pats; pat++ {
		scratch[0] = float64(pat)
		out[pat] = scratch[0]
	}
	return out
}

// projectInnerTileAlloc mimics a batched-backend tile helper: the "tile"
// fragment places it in the hot set.
func projectInnerTileAlloc(lo, hi int) []float64 {
	var out []float64
	for pat := lo; pat < hi; pat++ {
		row := make([]float64, 4) // want `make allocates inside a per-pattern loop`
		out = append(out, row...) // want `append inside a per-pattern loop`
	}
	return out
}

// sumTableRangeScratch mimics a backend sum-table kernel: scratch hoisted
// outside the loop is allowed, per-pattern allocation is not.
func sumTableRangeScratch(sumTab []float64, npat int) {
	scratch := make([]float64, 4) // outside the loop: allowed
	for pat := 0; pat < npat; pat++ {
		tmp := map[int]float64{pat: 1} // want `slice/map literal allocates inside a per-pattern loop`
		sumTab[pat] = scratch[0] + tmp[pat]
	}
}

// notAKernel is outside the hot set: the same patterns are allowed.
func notAKernel(n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		out = append(out, i)
	}
	return out
}

// runPassFanOut mimics the per-call fan-out the range executor replaced: a
// parts slice, a closure and a goroutine per range on every kernel call.
func runPassFanOut(ranges [][2]int, run func(lo, hi int) float64) float64 {
	parts := make([]float64, len(ranges)) // outside the loop: the allocation rule allows it
	done := make(chan struct{})
	for i, r := range ranges {
		go func() { // want `go statement in kernel runPassFanOut spawns a goroutine per call`
			parts[i] = run(r[0], r[1])
			done <- struct{}{}
		}()
	}
	s := 0.0
	for range ranges {
		<-done
	}
	for _, p := range parts {
		s += p
	}
	return s
}

// adoptClaimLoop mimics the executor's claim loop: claiming through a
// counter and filing parts in preallocated slots is clean, growing a slice
// per claimed block is not.
func adoptClaimLoop(next *int, nblk int, parts []float64) []int {
	var claimed []int
	for {
		b := *next
		*next++
		if b >= nblk {
			return claimed
		}
		parts[b] = float64(b)        // preallocated slot: allowed
		claimed = append(claimed, b) // want `append inside a per-pattern loop`
	}
}

// spawn is where resident helpers are started, once per process: not a hot
// name, so its go statement is allowed.
func spawn(n int, help func()) {
	for i := 0; i < n; i++ {
		go help()
	}
}

// classPassTable mimics the repeat-class pass: a table sized once on the
// context and indexed per pattern is clean, a map or slice grown per pattern
// is not.
func classPassTable(keys []uint64, table []uint64, cls []uint16) map[uint64]int {
	seen := map[uint64]int{}
	for pat, k := range keys {
		table[k%uint64(len(table))] = k // preallocated table: allowed
		cls[pat] = uint16(k)
		seen[k] = pat
		firsts := []int{pat} // want `slice/map literal allocates inside a per-pattern loop`
		_ = firsts
	}
	return seen
}
