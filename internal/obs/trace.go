package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"sync"

	"raxmlcell/internal/sim"
)

// Tracer records a timeline of typed events keyed to simulated time. It
// implements sim.Tracer, so it can be attached to a simulation engine
// (sim.Engine.SetTracer) and passed to the Cell runtime (cellrt.Config),
// which emit scheduler- and hardware-level events into it.
//
// Timestamps are simulated cycles, emitted verbatim into the trace-event
// "ts" field (which viewers display as microseconds — the scale is wrong
// but the shape, ordering and proportions are exact).
//
// Its wall-clock sibling is SpanTracer (span.go). Both keep their events in
// the one recorder below, so both share its byte-deterministic encoder; only
// the clock differs, and a timeline is one clock by type. A Tracer keeps
// every event: a simulated timeline is bounded by its configuration (the
// 128-search MGPS run of Figure 3 writes 202 051 events), and cutting it
// short would change the file.
type Tracer struct {
	recorder
}

// DefaultMaxSpanEvents bounds a SpanTracer's buffer: a multi-day campaign
// must not grow an unbounded timeline, so past the cap new events are
// counted as dropped instead of recorded.
const DefaultMaxSpanEvents = 1 << 17

// recorder is the event store both tracers embed: the event buffer, the
// stable track ids, the insertion sequence, and the retention cap with its
// drop count. It is safe for concurrent use — SpanTracer events arrive from
// every supervision worker; the simulator's arrive from one goroutine.
type recorder struct {
	mu      sync.Mutex
	max     int // retention cap; 0 keeps every event
	events  []traceEvent
	tids    map[string]int
	tracks  []string // track name by tid, in first-use order
	seq     uint64
	dropped uint64
}

// Event phases, a subset of the Chrome trace-event format.
const (
	phaseComplete = 'X' // span with a duration
	phaseInstant  = 'i' // zero-duration marker
	phaseCounter  = 'C' // sampled numeric series
)

// traceEvent is the shared in-memory event of both tracers. Timestamps are
// raw int64 "ts" units: simulated cycles for Tracer, wall microseconds for
// SpanTracer. args, when non-empty, is a pre-rendered JSON object emitted
// verbatim as the event's "args" field (the SpanTracer attribution labels).
type traceEvent struct {
	ts   int64
	dur  int64
	seq  uint64 // insertion order, the tie-breaker among same-ts events
	tid  int
	ph   byte
	name string
	cat  string
	val  float64 // counter value (phaseCounter only)
	args string
}

// record appends one event, assigning its track a stable tid in first-use
// order (so the mapping is deterministic for a deterministic run); past the
// cap the event is counted as dropped.
func (r *recorder) record(track string, ev traceEvent) {
	r.mu.Lock()
	if r.max > 0 && len(r.events) >= r.max {
		r.dropped++
		r.mu.Unlock()
		return
	}
	tid, ok := r.tids[track]
	if !ok {
		if r.tids == nil {
			r.tids = make(map[string]int)
		}
		tid = len(r.tracks)
		r.tids[track] = tid
		r.tracks = append(r.tracks, track)
	}
	r.seq++
	ev.seq = r.seq
	ev.tid = tid
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// Len reports the number of retained events.
func (r *recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Dropped reports how many events were discarded at the retention cap
// (always 0 for a Tracer, which has none).
func (r *recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Instant records a zero-duration marker on the named track.
func (t *Tracer) Instant(track, name, cat string, at sim.Time) {
	t.record(track, traceEvent{ts: int64(at), ph: phaseInstant, name: name, cat: cat})
}

// Span records a slice covering [from, to] on the named track. Spans whose
// interval is inverted are dropped rather than emitted corrupt.
func (t *Tracer) Span(track, name, cat string, from, to sim.Time) {
	if to < from {
		return
	}
	t.record(track, traceEvent{ts: int64(from), dur: int64(to - from), ph: phaseComplete, name: name, cat: cat})
}

// Counter records a sample of a numeric series on the named track.
func (t *Tracer) Counter(track, name string, at sim.Time, value float64) {
	t.record(track, traceEvent{ts: int64(at), ph: phaseCounter, name: name, val: value})
}

// WriteJSON emits the retained timeline as a Chrome trace-event file:
// thread-name metadata first, then every event sorted by (ts, insertion
// order). The encoding is hand-rolled with a fixed field order, so the
// output is byte-deterministic — the property the golden determinism tests
// pin down. Recording during the write is safe; the file reflects the
// events retained at the time of the call.
func (r *recorder) WriteJSON(w io.Writer) error {
	r.mu.Lock()
	tracks := slices.Clone(r.tracks)
	sorted := slices.Clone(r.events)
	r.mu.Unlock()
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`); err != nil {
		return err
	}
	first := true
	comma := func() {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		bw.WriteString("\n")
	}
	for tid, track := range tracks {
		comma()
		fmt.Fprintf(bw, `{"name":"thread_name","ph":"M","pid":0,"tid":%d,"args":{"name":%s}}`,
			tid, quoteJSON(track))
		comma()
		fmt.Fprintf(bw, `{"name":"thread_sort_index","ph":"M","pid":0,"tid":%d,"args":{"sort_index":%d}}`,
			tid, tid)
	}
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].ts != sorted[j].ts {
			return sorted[i].ts < sorted[j].ts
		}
		return sorted[i].seq < sorted[j].seq
	})
	for _, ev := range sorted {
		comma()
		switch ev.ph {
		case phaseComplete:
			fmt.Fprintf(bw, `{"name":%s,"cat":%s,"ph":"X","ts":%d,"dur":%d,"pid":0,"tid":%d`,
				quoteJSON(ev.name), quoteJSON(ev.cat), ev.ts, ev.dur, ev.tid)
			if ev.args != "" {
				fmt.Fprintf(bw, `,"args":%s`, ev.args)
			}
			bw.WriteByte('}')
		case phaseInstant:
			fmt.Fprintf(bw, `{"name":%s,"cat":%s,"ph":"i","s":"t","ts":%d,"pid":0,"tid":%d`,
				quoteJSON(ev.name), quoteJSON(ev.cat), ev.ts, ev.tid)
			if ev.args != "" {
				fmt.Fprintf(bw, `,"args":%s`, ev.args)
			}
			bw.WriteByte('}')
		case phaseCounter:
			fmt.Fprintf(bw, `{"name":%s,"ph":"C","ts":%d,"pid":0,"tid":%d,"args":{"value":%s}}`,
				quoteJSON(ev.name), ev.ts, ev.tid,
				strconv.FormatFloat(ev.val, 'g', -1, 64))
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// quoteJSON renders s as a JSON string literal.
func quoteJSON(s string) string {
	b, _ := json.Marshal(s) // marshaling a string cannot fail
	return string(b)
}

// validation types mirror the trace-event fields we emit; pointers
// distinguish absent from zero.
type vEvent struct {
	Name  *string  `json:"name"`
	Phase *string  `json:"ph"`
	TS    *float64 `json:"ts"`
	Dur   *float64 `json:"dur"`
	PID   *int     `json:"pid"`
	TID   *int     `json:"tid"`
	Scope *string  `json:"s"`
}

type vFile struct {
	TraceEvents []vEvent `json:"traceEvents"`
}

// ValidateTrace checks that r holds a well-formed Chrome trace-event JSON
// file — the schema gate run by `make trace` and CI before a trace is
// published as an artifact. It returns the number of events validated.
func ValidateTrace(r io.Reader) (int, error) {
	var f vFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return 0, fmt.Errorf("obs: trace is not valid JSON: %w", err)
	}
	if f.TraceEvents == nil {
		return 0, fmt.Errorf("obs: trace has no traceEvents array")
	}
	for i, ev := range f.TraceEvents {
		if ev.Name == nil || *ev.Name == "" {
			return 0, fmt.Errorf("obs: event %d: missing name", i)
		}
		if ev.Phase == nil {
			return 0, fmt.Errorf("obs: event %d (%s): missing ph", i, *ev.Name)
		}
		switch *ev.Phase {
		case "M":
			// Metadata carries no timestamp.
		case "X":
			if ev.Dur == nil || *ev.Dur < 0 {
				return 0, fmt.Errorf("obs: event %d (%s): complete event needs dur >= 0", i, *ev.Name)
			}
			fallthrough
		case "i", "C":
			if ev.TS == nil || *ev.TS < 0 {
				return 0, fmt.Errorf("obs: event %d (%s): needs ts >= 0", i, *ev.Name)
			}
			if *ev.Phase == "i" && (ev.Scope == nil || *ev.Scope == "") {
				return 0, fmt.Errorf("obs: event %d (%s): instant event needs a scope", i, *ev.Name)
			}
		default:
			return 0, fmt.Errorf("obs: event %d (%s): unknown phase %q", i, *ev.Name, *ev.Phase)
		}
		if ev.PID == nil || ev.TID == nil {
			return 0, fmt.Errorf("obs: event %d (%s): missing pid/tid", i, *ev.Name)
		}
	}
	return len(f.TraceEvents), nil
}
