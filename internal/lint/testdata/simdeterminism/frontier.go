// Golden case for simdeterminism's frontier: this file is analyzed under
// the pretend path raxmlcell/internal/sim (inside the deterministic scope)
// after the util package has been analyzed for facts, so calls that launder
// nondeterminism through util helpers are flagged at the frontier — the
// call site where the value enters the simulator.
package sim

import "raxmlcell/internal/util"

type eventQueue struct {
	seq   int64
	names map[string]int
}

func (q *eventQueue) schedule() {
	q.seq = util.Stamp()     // want `call to util\.Stamp is nondeterministic \(it reads the wall clock via time\.Now\)`
	q.seq += util.Jitter()   // want `call to util\.Jitter is nondeterministic \(it calls util\.stamp2, which reads the wall clock via time\.Now\)`
	_ = util.AnyKey(q.names) // want `call to util\.AnyKey is nondeterministic \(it ranges over a map in randomized order\)`
	q.seq = util.Clean(q.seq, 0)
}

// laundered propagates taint through a local helper: the helper itself
// is same-package (not reported here), but its call into util is the
// frontier and carries the two-package witness chain.
func laundered() int64 {
	return localWrap()
}

func localWrap() int64 {
	return util.Jitter() // want `call to util\.Jitter is nondeterministic`
}

// suppressed shows the escape hatch: the directive names the analyzer
// and carries a reason, so no finding survives (and the suppression
// audit sees a used directive).
func suppressed() int64 {
	//lint:ignore simdeterminism boot banner timestamp, never replayed
	return util.Stamp()
}
