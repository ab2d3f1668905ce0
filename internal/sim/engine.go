// Package sim is a process-oriented discrete-event simulation kernel: the
// substrate under the Cell Broadband Engine model in internal/cell. Each
// simulated hardware thread is a Proc — a goroutine that the engine resumes
// one at a time, so simulated time is global, deterministic, and advances
// only through explicit Advance calls. Ties in event time are broken by
// schedule order (FIFO), making every run bit-reproducible.
package sim

import (
	"container/heap"
	"fmt"
)

// Time is simulated time in cycles.
type Time uint64

// event resumes a parked process at a given time.
type event struct {
	at   Time
	seq  uint64
	proc *Proc
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Tracer receives the engine's timeline events: process lifecycle
// instants, work spans (Advance), and waiting spans (blocked on a Cond).
// internal/obs provides the standard implementation that exports Chrome
// trace-event JSON; the engine itself only requires this interface so the
// simulator does not depend on the observability layer.
//
// All timestamps are simulated cycles. A nil tracer disables tracing with
// no per-event cost beyond one branch.
type Tracer interface {
	// Instant records a zero-duration marker on a track.
	Instant(track, name, cat string, at Time)
	// Span records a slice covering [from, to] on a track.
	Span(track, name, cat string, from, to Time)
	// Counter records a sample of a numeric series.
	Counter(track, name string, at Time, value float64)
}

// Engine owns the virtual clock and the run queue.
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap
	procs  []*Proc
	tracer Tracer
}

// NewEngine creates an empty simulation.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// SetTracer attaches a timeline tracer (nil disables tracing). Attach it
// before Run so process spawns are captured.
func (e *Engine) SetTracer(t Tracer) { e.tracer = t }

// Proc is one simulated thread of execution. All Proc methods must be
// called from within the process's own body function.
type Proc struct {
	Name   string
	eng    *Engine
	resume chan struct{}
	parked chan struct{}
	body   func(*Proc)

	started   bool
	done      bool
	blocked   bool // parked without a pending wake event (waiting on a Cond)
	blockedAt Time // when the current block began (tracing)
	err       error
}

// Spawn registers a new process whose body starts executing at the current
// simulated time. It may be called before Run or from inside a running
// process.
func (e *Engine) Spawn(name string, body func(*Proc)) *Proc {
	p := &Proc{
		Name:   name,
		eng:    e,
		resume: make(chan struct{}),
		parked: make(chan struct{}),
		body:   body,
	}
	e.procs = append(e.procs, p)
	e.schedule(p, e.now)
	if e.tracer != nil {
		e.tracer.Instant(p.Name, "spawn", "sim", e.now)
	}
	return p
}

func (e *Engine) schedule(p *Proc, at Time) {
	e.seq++
	heap.Push(&e.events, event{at: at, seq: e.seq, proc: p})
}

// Run drives the simulation until no events remain. It returns an error if
// any process is still blocked at that point (deadlock).
func (e *Engine) Run() error {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(event)
		p := ev.proc
		if p.done {
			continue
		}
		if ev.at < e.now {
			return fmt.Errorf("sim: time went backwards (%d -> %d)", e.now, ev.at)
		}
		e.now = ev.at
		p.blocked = false
		if !p.started {
			p.started = true
			go func() {
				<-p.resume
				defer func() {
					// A panicking process must not hang the engine: record
					// the failure and hand control back.
					if r := recover(); r != nil {
						p.err = fmt.Errorf("sim: process %q panicked: %v", p.Name, r)
					}
					p.done = true
					p.parked <- struct{}{}
				}()
				p.body(p)
			}()
		}
		p.resume <- struct{}{}
		<-p.parked
		if p.err != nil {
			return p.err
		}
		if p.done && e.tracer != nil {
			e.tracer.Instant(p.Name, "exit", "sim", e.now)
		}
	}
	for _, p := range e.procs {
		if !p.done && p.started && p.blocked {
			return fmt.Errorf("sim: deadlock: process %q blocked with no pending events at t=%d", p.Name, e.now)
		}
	}
	return nil
}

// park hands control back to the engine; the process stays suspended until
// another event resumes it.
func (p *Proc) park() {
	p.parked <- struct{}{}
	<-p.resume
}

// Advance moves the process's execution forward by d cycles of simulated
// time (modelling computation or fixed-latency operations).
func (p *Proc) Advance(d Time) {
	if d > 0 && p.eng.tracer != nil {
		p.eng.tracer.Span(p.Name, "advance", "sim", p.eng.now, p.eng.now+d)
	}
	p.eng.schedule(p, p.eng.now+d)
	p.park()
}

// block parks the process with no wake-up event; a Cond signal must
// reschedule it. Used by the synchronization primitives.
func (p *Proc) block() {
	p.blocked = true
	p.blockedAt = p.eng.now
	p.park()
	if t := p.eng.tracer; t != nil && p.eng.now > p.blockedAt {
		t.Span(p.Name, "blocked", "sim", p.blockedAt, p.eng.now)
	}
}

// unblock schedules the process to resume at the current time.
func (p *Proc) unblock() {
	p.eng.schedule(p, p.eng.now)
}

// Now returns the current simulated time (convenience).
func (p *Proc) Now() Time { return p.eng.now }
