package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/obs"
	"raxmlcell/internal/search"
)

// kernelClock is the runner's kernel observer: busy nanoseconds and calls per
// kernel entry point, allocation-free and safe from every search worker.
// Newview and makenewz times are exclusive; an evaluate time includes the
// newviews the evaluation triggers.
type kernelClock struct {
	ns    [likelihood.NumKernelOps]atomic.Int64
	calls [likelihood.NumKernelOps]atomic.Int64
}

func (k *kernelClock) ObserveKernel(op likelihood.KernelOp, d time.Duration) {
	k.ns[op].Add(int64(d))
	k.calls[op].Add(1)
}

// kernelTotals is a snapshot of a kernelClock.
type kernelTotals struct {
	ns, calls [likelihood.NumKernelOps]int64
}

func (k *kernelClock) totals() kernelTotals {
	var t kernelTotals
	for op := range t.ns {
		t.ns[op] = k.ns[op].Load()
		t.calls[op] = k.calls[op].Load()
	}
	return t
}

func (t kernelTotals) sub(u kernelTotals) kernelTotals {
	for op := range t.ns {
		t.ns[op] -= u.ns[op]
		t.calls[op] -= u.calls[op]
	}
	return t
}

// busy is the kernel time that no other kernel time contains.
func (t kernelTotals) busy() time.Duration {
	return time.Duration(t.ns[likelihood.OpNewview] + t.ns[likelihood.OpMakenewz])
}

// span is one timed call into a layer. Spans of one operation share Op; a
// span's layer is its name up to the first dot.
type span struct {
	Name   string
	Start  time.Duration
	End    time.Duration
	Parent int // index into the recorder's spans, -1 for an operation's root
	Op     int
	// Kernel is the kernel busy time observed while the span was open, over
	// all workers; it can exceed the span's duration on a pooled search.
	Kernel time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// instruments is what a traced operation carries: the span recorder, the
// kernel observer, the registry the search publishes its counters into, and
// the progress hook. A nil *instruments is an untraced operation: every
// method is a no-op, so traced and untraced operations run the same code.
type instruments struct {
	base    time.Time
	spans   []span
	stack   []int
	open    []kernelTotals // kernel totals at begin, parallel to stack
	op      int
	kern    kernelClock
	reg     *obs.Registry
	phase   time.Duration // start of the search phase in progress
	rounds  []time.Duration
	parsCal []time.Duration // parsimony start-tree calls
}

func newInstruments() *instruments {
	return &instruments{base: time.Now(), reg: obs.NewRegistry()}
}

func (in *instruments) now() time.Duration { return time.Since(in.base) }

// begin opens a span under the innermost open one and returns its id.
func (in *instruments) begin(name string) int {
	if in == nil {
		return -1
	}
	parent := -1
	if n := len(in.stack); n > 0 {
		parent = in.stack[n-1]
	} else {
		in.op++
	}
	in.spans = append(in.spans, span{Name: name, Parent: parent, Op: in.op})
	id := len(in.spans) - 1
	in.stack = append(in.stack, id)
	in.open = append(in.open, in.kern.totals())
	in.spans[id].Start = in.now()
	return id
}

// end closes the innermost span, which must be id.
func (in *instruments) end(id int) {
	if in == nil {
		return
	}
	t := in.now()
	n := len(in.stack) - 1
	if n < 0 || in.stack[n] != id {
		panic("benchmark: spans closed out of order")
	}
	in.spans[id].End = t
	in.spans[id].Kernel = in.kern.totals().sub(in.open[n]).busy()
	in.stack, in.open = in.stack[:n], in.open[:n]
}

// kernelConfig is the likelihood configuration of an operation: the
// program's default backend unless one is named, observed when traced.
func (in *instruments) kernelConfig(backend string) likelihood.Config {
	cfg := likelihood.Config{Backend: backend}
	if in != nil {
		cfg.Observer = &in.kern
		cfg.Now = in.now
	}
	return cfg
}

// searchOptions returns the workload's search settings, wired to the
// registry and the progress hook when traced.
func (in *instruments) searchOptions(workers int) search.Options {
	opt := searchOptions(workers)
	if in != nil {
		opt.Metrics = in.reg
		opt.OnProgress = in.onProgress
	}
	return opt
}

// searchBegins marks the start of a search whose phases onProgress will
// close; call it right before the call that runs the search.
func (in *instruments) searchBegins() {
	if in != nil {
		in.phase = in.now()
	}
}

// onProgress turns the search's trajectory events into spans: the time up
// to "start" is the initial smoothing and alpha fit, each "round" event
// closes one SPR round. It runs on the goroutine that called search.Run,
// which is the one that owns the recorder.
func (in *instruments) onProgress(p search.Progress) {
	t := in.now()
	name := ""
	switch p.Phase {
	case "start":
		name = "search.initial"
	case "round":
		name = "search.round"
		in.rounds = append(in.rounds, t-in.phase)
	default:
		return
	}
	parent := -1
	if n := len(in.stack); n > 0 {
		parent = in.stack[n-1]
	}
	in.spans = append(in.spans, span{Name: name, Start: in.phase, End: t, Parent: parent, Op: in.op})
	in.phase = t
}

// counter reads an optional registry counter by name; a series the program
// no longer publishes reads as absent, not as an error.
func (in *instruments) counter(name string) (float64, bool) {
	snap := in.reg.Snapshot()
	v, ok := snap.CounterValue(name)
	return float64(v), ok
}

// root returns the index of the span of operation op that has no parent.
func (in *instruments) root(op int) int {
	for i, s := range in.spans {
		if s.Op == op && s.Parent < 0 {
			return i
		}
	}
	panic("benchmark: operation recorded no span")
}

// attributed is the worker time of operation op that a named call accounts
// for. Serially that is every direct child of the root, since time inside a
// call is either kernel time or that call's own. With several workers a
// child that ran kernels counts its kernel busy time over all workers, and
// what is left of workers x wall is idle or orchestration the runner cannot
// see from outside.
func (in *instruments) attributed(op, workers int) time.Duration {
	var sum time.Duration
	rootID := in.root(op)
	for _, s := range in.spans {
		if s.Op != op || s.Parent != rootID {
			continue
		}
		if workers > 1 && s.Kernel > 0 {
			sum += s.Kernel
		} else {
			sum += s.dur()
		}
	}
	return sum
}

// total sums the duration and the kernel time of the spans with the given
// names, over every operation recorded.
func (in *instruments) total(names ...string) (wall, kernel time.Duration, n int) {
	for _, s := range in.spans {
		for _, name := range names {
			if s.Name == name {
				wall += s.dur()
				kernel += s.Kernel
				n++
			}
		}
	}
	return wall, kernel, n
}

// selfSeconds is the layer table: for each span name, the time its spans
// were open minus the time their direct children cover.
func (in *instruments) selfSeconds() map[string]float64 {
	child := make([]time.Duration, len(in.spans))
	for _, s := range in.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	self := map[string]float64{}
	for i, s := range in.spans {
		self[s.Name] += (s.dur() - child[i]).Seconds()
	}
	return self
}

// writeTrace writes the spans as Chrome trace-event JSON.
func (in *instruments) writeTrace(path, workloadName string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(in.spans))
	for i, s := range in.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		evs = append(evs, event{
			Name: s.Name, Cat: layer, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3, Pid: 1, Tid: 1,
			Args: map[string]any{"id": i, "parent": s.Parent, "op": s.Op, "workload": workloadName, "kernel_us": float64(s.Kernel) / 1e3},
		})
	}
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].Ts < evs[b].Ts })
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// median returns the median of v, and 0 for no values.
func median[T ~int64 | ~float64](v []T) T {
	if len(v) == 0 {
		return 0
	}
	s := append([]T(nil), v...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
