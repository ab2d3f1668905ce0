package obs_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"sync"
	"testing"

	"raxmlcell/internal/obs"
)

func TestCounterGauge(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("jobs")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("jobs") != c {
		t.Fatal("Counter not get-or-create")
	}
	c.Store(2)
	if got := c.Value(); got != 2 {
		t.Fatalf("counter after Store = %d, want 2", got)
	}

	g := r.Gauge("logl")
	g.Set(-1234.5)
	if got := g.Value(); got != -1234.5 {
		t.Fatalf("gauge = %v", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := obs.NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hits")
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Value(); got != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", got)
	}
}

func TestHistogram(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("latency", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 5, 50, 5000} {
		h.Observe(v)
	}
	s := r.Snapshot()
	if len(s.Histograms) != 1 {
		t.Fatalf("snapshot has %d histograms", len(s.Histograms))
	}
	hv := s.Histograms[0]
	if hv.Count != 5 || hv.Sum != 5060.5 {
		t.Fatalf("count=%d sum=%v", hv.Count, hv.Sum)
	}
	want := []uint64{1, 2, 1, 1}
	for i, c := range hv.Counts {
		if c != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, c, want[i])
		}
	}
}

func TestKey(t *testing.T) {
	if got := obs.Key("mw.jobs"); got != "mw.jobs" {
		t.Fatalf("unlabeled Key = %q", got)
	}
	got := obs.Key("mw.jobs", "kind", "bootstrap", "index", "3")
	if got != "mw.jobs{index=3,kind=bootstrap}" {
		t.Fatalf("Key = %q", got)
	}
	// Label order must not matter.
	if other := obs.Key("mw.jobs", "index", "3", "kind", "bootstrap"); other != got {
		t.Fatalf("Key order-sensitive: %q vs %q", other, got)
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	build := func() *obs.Registry {
		r := obs.NewRegistry()
		// Insertion order differs from sorted order on purpose.
		r.Counter("z.last").Add(3)
		r.Counter("a.first").Add(1)
		r.Gauge("m.mid").Set(2.5)
		r.Gauge("b.low").Set(-1)
		r.Histogram("h", []float64{1}).Observe(0.5)
		return r
	}
	var a, b bytes.Buffer
	if err := build().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("snapshots differ:\n%s\nvs\n%s", a.String(), b.String())
	}

	s := build().Snapshot()
	if s.Counters[0].Name != "a.first" || s.Counters[1].Name != "z.last" {
		t.Fatalf("counters not sorted: %+v", s.Counters)
	}
	if v, ok := s.CounterValue("z.last"); !ok || v != 3 {
		t.Fatalf("CounterValue(z.last) = %d, %v", v, ok)
	}
	if v, ok := s.GaugeValue("b.low"); !ok || v != -1 {
		t.Fatalf("GaugeValue(b.low) = %v, %v", v, ok)
	}
	if _, ok := s.CounterValue("absent"); ok {
		t.Fatal("lookup of absent counter succeeded")
	}
}

// TestWriteJSONRoundTrip: the /metrics payload decodes to exactly the
// registry's snapshot — every counter, gauge bit and histogram bucket
// survives the encoding, labeled names and the overflow bucket included.
func TestWriteJSONRoundTrip(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("mw.jobs_done").Add(7)
	r.Counter(obs.Key("mw.attempts", "job", "inference#0")).Add(3)
	r.Gauge("mw.best_logl").Set(-1234.5)
	r.Gauge("g.inexact").Set(0.1 + 0.2) // needs all 17 digits
	h := r.Histogram("search.round_ms", obs.MsBuckets)
	for _, v := range []float64{0.02, 3.5, 99999} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got obs.Snapshot
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("WriteJSON output is not a Snapshot: %v\n%s", err, buf.Bytes())
	}
	if want := r.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded snapshot differs:\n got %+v\nwant %+v", got, want)
	}
	if v, ok := got.GaugeValue("g.inexact"); !ok || v != 0.1+0.2 {
		t.Fatalf("g.inexact = %v, %v; want %v", v, ok, 0.1+0.2)
	}
	if hv := got.Histograms[0]; hv.Counts[len(hv.Counts)-1] != 1 {
		t.Fatalf("overflow bucket = %d, want 1: %+v", hv.Counts[len(hv.Counts)-1], hv)
	}
}

// TestWriteJSONKeepsLabelCharacters: label values holding quotes,
// backslashes, braces, newlines or non-ASCII text come back from the JSON
// snapshot under the same Key, so a reader finds them by the name it built.
func TestWriteJSONKeepsLabelCharacters(t *testing.T) {
	values := []string{`quo"te\back`, "a}b{c", "line\nbreak", "ünï\tcode"}
	r := obs.NewRegistry()
	for i, v := range values {
		r.Counter(obs.Key("jobs", "detail", v)).Add(uint64(i + 1))
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("invalid JSON:\n%s", buf.Bytes())
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		key := obs.Key("jobs", "detail", v)
		if got, ok := snap.CounterValue(key); !ok || got != uint64(i+1) {
			t.Errorf("CounterValue(%q) = %d, %v; want %d", key, got, ok, i+1)
		}
	}
}

// TestSnapshotHistogramCoherent: every histogram in a snapshot has one
// bucket per bound plus the overflow bucket, its buckets add up to its
// count, and its bounds are the ones it was created with — copied, so
// neither the creator's slice nor a snapshot's can change them later.
func TestSnapshotHistogramCoherent(t *testing.T) {
	r := obs.NewRegistry()
	bounds := []float64{1, 10, 100}
	h := r.Histogram("lat.ms", bounds)
	for _, v := range []float64{0.5, 0.6, 5, 50, 5000} {
		h.Observe(v)
	}
	r.Histogram("idle.ms", obs.MsBuckets) // never observed
	bounds[0] = 1000                      // must not move the first bound
	if again := r.Histogram("lat.ms", []float64{2}); again != h {
		t.Fatal("Histogram not get-or-create")
	}

	check := func(s obs.Snapshot) {
		t.Helper()
		if len(s.Histograms) != 2 {
			t.Fatalf("snapshot has %d histograms, want 2", len(s.Histograms))
		}
		for _, hv := range s.Histograms {
			if len(hv.Counts) != len(hv.Bounds)+1 {
				t.Errorf("%s: %d buckets for %d bounds", hv.Name, len(hv.Counts), len(hv.Bounds))
			}
			var n uint64
			for _, c := range hv.Counts {
				n += c
			}
			if n != hv.Count {
				t.Errorf("%s: buckets add up to %d, count %d", hv.Name, n, hv.Count)
			}
			if !slices.IsSorted(hv.Bounds) {
				t.Errorf("%s: bounds not ascending: %v", hv.Name, hv.Bounds)
			}
		}
		idle, lat := s.Histograms[0], s.Histograms[1]
		if idle.Count != 0 || idle.Sum != 0 || !slices.Equal(idle.Bounds, obs.MsBuckets) {
			t.Errorf("idle.ms = %+v", idle)
		}
		if !slices.Equal(lat.Bounds, []float64{1, 10, 100}) {
			t.Errorf("lat.ms bounds = %v, want [1 10 100]", lat.Bounds)
		}
		if !slices.Equal(lat.Counts, []uint64{2, 1, 1, 1}) || lat.Sum != 5056.1 {
			t.Errorf("lat.ms counts %v sum %v, want [2 1 1 1] 5056.1", lat.Counts, lat.Sum)
		}
	}
	s := r.Snapshot()
	check(s)
	s.Histograms[1].Bounds[0] = -1
	s.Histograms[1].Counts[0] = 99
	check(r.Snapshot())
}
