package likelihood

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Loop-level parallelism, the paper's LLP, scheduled by its MGPS rule: the
// loops inside a task get the processors that task-level parallelism leaves
// idle, and only those.
//
// Every per-pattern pass of a kernel call (combine, evaluate, sum table, the
// two Newton passes) runs over fixed blocks of rangeBlock patterns — a
// combine and the sum table's factor pass over the same number of blocks of
// their rows, one per repeat class (or tip code). The
// calling goroutine claims blocks through one atomic counter; while the pass
// is published, so do the process-wide helper goroutines — at most
// GOMAXPROCS−1 of them, started by the first pass that has enough blocks,
// never per engine, search or job. A block leaves its share of the pass's
// reductions in the engine's part slot of its index and the caller folds the
// slots in block order on every path, so the result has the same bits at any
// GOMAXPROCS, whoever ran which block. An engine whose alignment is one
// block runs it where it stands and touches none of this (Engine.runPass).
//
// Adoption rule: a helper takes blocks only while fewer than GOMAXPROCS
// goroutines are inside a pass — callers, plus helpers working on one. Two
// engines busy on two CPUs keep their CPUs; the serial stretches of a
// campaign, a single search and a single fixed-topology optimisation get the
// idle ones.

// The constants below were set by the sweeps recorded in DESIGN.md
// ("Parallelism: two axes").
const (
	// rangeBlock is the number of patterns in one block: a multiple of
	// batchTile, and large enough that the paper's 42_SC (249 patterns) and
	// the benchmark's searches (67–110) are one block and never reach the
	// executor.
	rangeBlock = 512

	// minPublishBlocks is the fewest blocks a pass must have to be offered
	// to the helpers.
	minPublishBlocks = 2

	// pollBudget is how many times a goroutine with nothing to claim looks
	// again, yielding to runnable goroutines in between (≈ 0.13 µs a look),
	// before it blocks: a helper for the next published pass, a caller for
	// the blocks helpers still hold. Blocking costs a wake-up through the
	// scheduler, tens of microseconds against a pass of a few hundred.
	pollBudget = 3000

	// probeWindow, probeWindows and snoozePublishes bound what the helpers
	// cost when they do not pay. Time is counted in publishes, the callers'
	// progress. A window of probeWindow publishes is a bad one if helpers
	// waited in vain more than an eighth as often — the operating system has
	// a helper's thread on the CPU a caller needs, and its polling keeps the
	// caller from publishing; a helper in nobody's way does once in a
	// thousand, one fighting a busy loop for its CPU once in four — or if
	// callers had to block for a helper's block more than once in 256
	// publishes — the helper is being taken off its CPU with blocks in hand;
	// undisturbed, one in several thousand, against the busy loop one in a
	// hundred or two. After
	// probeWindows bad windows in a row every helper sleeps through the next
	// snoozePublishes publishes, and then they try again. Callers held up by
	// a polling helper publish some 1 500 times a second whatever their size,
	// so the probe lasts two to three seconds. It is that long because the
	// operating system needs it: a kernel that has both threads on one CPU —
	// as this host's does after the machine has idled — moves one to the idle
	// CPU only after they have competed for a second, and helpers that give
	// up sooner never get there.
	probeWindow     = 1 << 10
	probeWindows    = 4
	snoozePublishes = 1 << 17
)

// passKind names the per-pattern pass a published engine is running; its
// operands are in the engine's op block of the same name.
type passKind uint8

const (
	passCombine passKind = iota
	passEvaluate
	passSumFactors
	passSumTable
	passNewtonDeriv
	passNewtonValue
	// passPrescore is a combine and an evaluate of its result in one pass:
	// operands in both op blocks, the combined block in the running
	// goroutine's scratch (Engine.Prescore).
	passPrescore
	// passClassTables builds the class tables in e.scr.tabs, each table's rows
	// split evenly over the blocks (Engine.projectTables).
	passClassTables
)

// blockPart is what one block of a pass leaves for the caller: the part
// value of whichever pass ran.
type blockPart struct {
	comb  combineStats
	eval  evalPart
	sum   sumPart
	deriv derivPart
	value valuePart
}

// rangeJob is the claim state of an engine's running pass. It is reused by
// every pass of the engine: next stays at or above the block count between
// passes, so a helper that looked at the engine a moment too late claims
// nothing, and one that claims after the next pass opened runs a block of
// that pass — the operands are written before next is reset.
type rangeJob struct {
	kind    passKind
	next    atomic.Int32 // next unclaimed block
	adopted atomic.Int32 // blocks helpers have finished in this pass
	waiting atomic.Bool  // the caller blocks on idle until adopted catches up
	idle    chan struct{}
}

// rangeExecutor is the process-wide state: the one published pass, the
// helpers and the occupancy the adoption rule reads.
type rangeExecutor struct {
	procs   atomic.Int32           // GOMAXPROCS as of the last multi-block NewEngine
	helpers atomic.Int32           // helper goroutines started
	current atomic.Pointer[Engine] // the published pass; nil between passes
	inPass  atomic.Int32           // goroutines inside a pass: callers + helpers on a block
	parked  atomic.Int32           // helpers blocked on wake
	wake    chan struct{}

	published   atomic.Uint64 // passes published so far: the executor's clock
	snoozeUntil atomic.Uint64 // helpers stay away until published gets here
	probe       struct {
		sync.Mutex
		start          uint64 // published when the window opened
		inVain, stalls uint64 // helper waits for nothing, caller waits that blocked
		bad            int    // bad windows in a row
	}

	// Outside Meter, which must not depend on the schedule.
	blocks, adopted atomic.Uint64
}

var executor = rangeExecutor{wake: make(chan struct{}, 1)}

// RangeBlocks reports how many pattern blocks multi-block passes have run in
// this process and how many of them helper goroutines adopted. Both depend
// on the schedule; no result does.
func RangeBlocks() (run, adopted uint64) {
	return executor.blocks.Load(), executor.adopted.Load()
}

// noteProcs records GOMAXPROCS for the adoption rule. Reading it takes the
// scheduler lock, so it is read where a multi-block engine is built and not
// per kernel call.
func (x *rangeExecutor) noteProcs() { x.procs.Store(int32(runtime.GOMAXPROCS(0))) }

// blockRange is the pattern range of block b.
func (e *Engine) blockRange(b int) patRange {
	return patRange{b * rangeBlock, min((b+1)*rangeBlock, e.npat)}
}

// runBlock executes block b of a pass on the engine's operands, with the
// running goroutine's tile scratch, and files its part under b.
func (e *Engine) runBlock(kind passKind, b int, ts *tileScratch) {
	bk, pr, part := e.backend, e.blockRange(b), &e.scr.parts[b]
	switch kind {
	case passCombine:
		// A combine computes rows, not patterns, and reduces no float, so
		// its rows are split evenly over the blocks without moving a bit.
		n := e.scr.combOp.rows
		part.comb = bk.combineRows(e, &e.scr.combOp, patRange{b * n / e.nblk, (b + 1) * n / e.nblk}, ts)
	case passEvaluate:
		part.eval = bk.evaluateRange(e, &e.scr.evalOp, pr, ts)
	case passSumFactors:
		// Rows again: each side's split evenly over the blocks.
		np, nq := e.scr.sumOp.pRows, e.scr.sumOp.qRows
		part.sum = bk.sumTableFactors(e, &e.scr.sumOp, patRange{b * np / e.nblk, (b + 1) * np / e.nblk},
			patRange{b * nq / e.nblk, (b + 1) * nq / e.nblk}, ts)
	case passSumTable:
		part.sum = e.sumTableProducts(&e.scr.sumOp, pr)
	case passNewtonDeriv:
		part.deriv = bk.newtonDerivRange(e, &e.scr.newtOp, pr, ts)
	case passNewtonValue:
		part.value = bk.newtonValueRange(e, &e.scr.newtOp, pr, ts)
	case passPrescore:
		// The ops are this goroutine's copies: the engine's are shared by
		// every block of the pass, and each block combines into its own x.
		ts.fitX(pr.hi-pr.lo, e.ncat)
		ts.comb, ts.eval = e.scr.combOp, e.scr.evalOp
		ts.comb.dst, ts.comb.dstScale, ts.comb.dstLo = ts.x, ts.xsc, pr.lo
		ts.eval.p, ts.eval.pLo = vec{lv: ts.x, sc: ts.xsc}, pr.lo
		part.comb = bk.combineRows(e, &ts.comb, pr, ts)
		part.eval = bk.evaluateRange(e, &ts.eval, pr, ts)
		ts.comb, ts.eval = combineOp{}, evalOp{} // a helper's tile must not pin the engine's vectors
	case passClassTables:
		for _, t := range e.scr.tabs {
			projectRows(e, t.p, t.src, t.dst, b*t.rows/e.nblk, (b+1)*t.rows/e.nblk)
		}
	}
}

// runPass runs one per-pattern pass over every block of the engine's
// patterns; the operands are in the engine's op block for kind. On return
// e.scr.parts[b] holds block b's part, for the caller to fold in block order.
func (e *Engine) runPass(kind passKind) {
	x := &executor
	if e.nblk < minPublishBlocks || x.procs.Load() < 2 {
		for b := 0; b < e.nblk; b++ {
			e.runBlock(kind, b, &e.scr.tile)
		}
		if e.nblk > 1 { // an engine of one block leaves no trace in the executor
			x.blocks.Add(uint64(e.nblk))
		}
		return
	}

	x.inPass.Add(1)
	j := &e.scr.job
	j.kind = kind
	j.adopted.Store(0)
	j.next.Store(0) // the pass is claimable from here on
	published := x.current.CompareAndSwap(nil, e)
	if published {
		x.published.Add(1)
		x.wakeHelper()
	}
	mine := int32(0)
	for {
		b := int(j.next.Add(1)) - 1
		if b >= e.nblk {
			break
		}
		e.runBlock(kind, b, &e.scr.tile)
		mine++
	}
	if published {
		// A finished call leaves nothing published: the slot would pin the
		// engine, and with it the previous operation's vectors.
		x.current.Store(nil)
	}
	if blocked := j.await(int32(e.nblk) - mine); blocked {
		x.trouble(0, 1)
	}
	x.inPass.Add(-1)
	x.blocks.Add(uint64(e.nblk))
}

// await returns once helpers have finished want blocks of the running pass,
// and reports whether it had to block for them. The wait is normally a
// fraction of a block; it polls for a bounded time and then blocks, so that a
// helper the operating system has descheduled gets the CPU instead of a
// spinning caller.
func (j *rangeJob) await(want int32) (blocked bool) {
	for i := 0; i < pollBudget; i++ {
		if j.adopted.Load() == want {
			return false
		}
		runtime.Gosched()
	}
	j.waiting.Store(true)
	for j.adopted.Load() != want {
		<-j.idle // a token left over from an earlier pass costs one more look
	}
	j.waiting.Store(false)
	return true
}

// trouble books helper waits that nothing came of and caller waits that had
// to block, judges the window when it is full, and sends the helpers to sleep
// after probeWindows bad ones in a row.
func (x *rangeExecutor) trouble(inVain, stalls uint64) {
	p := &x.probe
	p.Lock()
	defer p.Unlock()
	p.inVain += inVain
	p.stalls += stalls
	now := x.published.Load()
	n := now - p.start
	if n < probeWindow {
		return
	}
	if p.inVain > n/8 || p.stalls > n/256 {
		p.bad++
	} else {
		p.bad = 0
	}
	if p.bad == probeWindows {
		p.bad = 0
		x.snoozeUntil.Store(now + snoozePublishes)
	}
	p.start, p.inVain, p.stalls = now, 0, 0
}

// snoozing reports whether the helpers are to stay away for now.
func (x *rangeExecutor) snoozing() bool { return x.published.Load() < x.snoozeUntil.Load() }

// wakeHelper hands a parked helper the wake token if a CPU is idle by the
// adoption rule's count and the helpers have not asked to be left asleep.
func (x *rangeExecutor) wakeHelper() {
	procs := x.procs.Load()
	if x.helpers.Load() < procs-1 {
		x.spawn(procs - 1)
	}
	if x.parked.Load() > 0 && x.inPass.Load() < procs && !x.snoozing() {
		select {
		case x.wake <- struct{}{}:
		default:
		}
	}
}

// spawn brings the number of helper goroutines up to n. They live as long as
// the process: parked, a helper is a blocked goroutine and a tile.
func (x *rangeExecutor) spawn(n int32) {
	for h := x.helpers.Load(); h < n; h = x.helpers.Load() {
		if x.helpers.CompareAndSwap(h, h+1) {
			go x.help()
		}
	}
}

// help is a helper goroutine: adopt blocks of the published pass when the
// adoption rule allows, poll for the next one while yielding to whatever is
// runnable, park when the budget runs out or the helpers have been sent to
// sleep.
func (x *rangeExecutor) help() {
	var ts tileScratch // this helper's own tile: it never touches an engine's
	for polls := 0; ; {
		if !x.snoozing() {
			if e := x.current.Load(); e != nil && x.adopt(e, &ts) {
				polls = 0
				continue
			}
			if polls++; polls < pollBudget {
				runtime.Gosched()
				continue
			}
			x.trouble(1, 0) // once in a while that is an idle caller
		}
		x.parked.Add(1)
		<-x.wake
		x.parked.Add(-1)
		polls = 0
	}
}

// adopt runs blocks of e's pass until none is left to claim and reports
// whether it ran any. It takes none while every CPU already has a goroutine
// inside a pass.
func (x *rangeExecutor) adopt(e *Engine, ts *tileScratch) (ran bool) {
	j, nblk := &e.scr.job, int32(e.nblk)
	if j.next.Load() >= nblk {
		return false
	}
	if x.inPass.Add(1) > x.procs.Load() {
		x.inPass.Add(-1)
		return false
	}
	for {
		b := j.next.Add(1) - 1
		if b >= nblk {
			break
		}
		if !ran {
			ran = true
			ts.fit(e.ncat)
			x.wakeHelper() // pass the wake on while CPUs are still idle
		}
		e.runBlock(j.kind, int(b), ts)
		x.adopted.Add(1)
		j.adopted.Add(1) // the caller may return from here on
		if j.waiting.Load() {
			select {
			case j.idle <- struct{}{}:
			default:
			}
		}
	}
	x.inPass.Add(-1)
	return ran
}
