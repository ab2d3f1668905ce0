package obs

import (
	"encoding/json"
	"io"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64, safe for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Store replaces the value — for republishing an externally accumulated
// total (e.g. a likelihood.Meter field) through the registry.
func (c *Counter) Store(n uint64) { c.v.Store(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can be set to arbitrary values, safe for
// concurrent use.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed upper-bound buckets (a final
// +Inf bucket is implicit), tracking the running count and sum. Observe is
// lock-free — bucket counts and the total are plain atomic increments and
// the sum is a compare-and-swap float add — so hot paths (kernel timing,
// span EndObserve) record samples without contending on a mutex or
// allocating. Snapshot reads the fields individually; under concurrent
// writers the (count, sum, buckets) triple may be skewed by in-flight
// observations, which is the usual monitoring trade-off.
type Histogram struct {
	bounds  []float64       // ascending upper bounds, immutable after creation
	counts  []atomic.Uint64 // len(bounds)+1; last is the overflow bucket
	sumBits atomic.Uint64   // float64 bits of the running sum
	n       atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		sum := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(sum)) {
			break
		}
	}
	h.n.Add(1)
}

// Registry is a named collection of metrics. Metric constructors are
// get-or-create and return the same instance for the same name, so any
// layer can cheaply resolve a handle and update it on a hot path.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given ascending bucket upper bounds if needed (bounds are ignored on
// later lookups of an existing histogram).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Uint64, len(bounds)+1),
		}
		r.hists[name] = h
	}
	return h
}

// Key builds a labeled metric name — name{k1=v1,k2=v2} with the pairs
// sorted by key — so labeled series snapshot deterministically.
func Key(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	if len(kv)%2 != 0 {
		kv = append(kv, "")
	}
	pairs := make([]string, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		pairs = append(pairs, kv[i]+"="+kv[i+1])
	}
	sort.Strings(pairs)
	return name + "{" + strings.Join(pairs, ",") + "}"
}

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeValue is one gauge in a snapshot.
type GaugeValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistogramValue is one histogram in a snapshot.
type HistogramValue struct {
	Name   string    `json:"name"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
}

// Snapshot is a point-in-time copy of every metric, sorted by name within
// each kind so two snapshots of identical state marshal to identical bytes.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters"`
	Gauges     []GaugeValue     `json:"gauges"`
	Histograms []HistogramValue `json:"histograms"`
}

// CounterValue finds a counter by name in the snapshot.
func (s *Snapshot) CounterValue(name string) (uint64, bool) {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

// GaugeValue finds a gauge by name in the snapshot.
func (s *Snapshot) GaugeValue(name string) (float64, bool) {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value, true
		}
	}
	return 0, false
}

// Snapshot captures the current value of every registered metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s Snapshot
	for _, name := range slices.Sorted(maps.Keys(r.counters)) {
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: r.counters[name].Value()})
	}
	for _, name := range slices.Sorted(maps.Keys(r.gauges)) {
		s.Gauges = append(s.Gauges, GaugeValue{Name: name, Value: r.gauges[name].Value()})
	}
	for _, name := range slices.Sorted(maps.Keys(r.hists)) {
		h := r.hists[name]
		counts := make([]uint64, len(h.counts))
		for i := range h.counts {
			counts[i] = h.counts[i].Load()
		}
		s.Histograms = append(s.Histograms, HistogramValue{
			Name:   name,
			Count:  h.n.Load(),
			Sum:    math.Float64frombits(h.sumBits.Load()),
			Bounds: append([]float64(nil), h.bounds...),
			Counts: counts,
		})
	}
	return s
}

// WriteJSON marshals a snapshot of the registry to w — the payload the
// /metrics endpoint serves.
func (r *Registry) WriteJSON(w io.Writer) error {
	s := r.Snapshot()
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(&s)
}
