package obs_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"raxmlcell/internal/likelihood"
	"raxmlcell/internal/obs"
)

func TestDebugMuxEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("mw.jobs_done").Add(7)
	reg.Gauge("mw.best_logl").Set(-1234.5)

	srv := httptest.NewServer(obs.NewDebugMux(reg, nil))
	defer srv.Close()

	get := func(path string) (int, []byte) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: reading body: %v", path, err)
		}
		return resp.StatusCode, body
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics is not a Snapshot: %v\n%s", err, body)
	}
	if v, ok := snap.CounterValue("mw.jobs_done"); !ok || v != 7 {
		t.Fatalf("mw.jobs_done = %d, %v", v, ok)
	}
	if v, ok := snap.GaugeValue("mw.best_logl"); !ok || v != -1234.5 {
		t.Fatalf("mw.best_logl = %v, %v", v, ok)
	}

	for _, path := range []string{"/debug/pprof/", "/debug/vars", "/"} {
		if code, _ := get(path); code != http.StatusOK {
			t.Errorf("%s: status %d", path, code)
		}
	}
	if code, _ := get("/nope"); code != http.StatusNotFound {
		t.Errorf("/nope: status %d, want 404", code)
	}
}

func TestStartDebugServer(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("x").Inc()
	srv, addr, err := obs.StartDebugServer("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics on live server: status %d", resp.StatusCode)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if v, ok := snap.CounterValue("x"); !ok || v != 1 {
		t.Fatalf("counter x = %d, %v", v, ok)
	}
}

func TestPublishMeter(t *testing.T) {
	m := likelihood.Meter{NewviewCalls: 10, Muls: 200, Adds: 100, CacheHits: 3}
	reg := obs.NewRegistry()
	obs.PublishMeter(reg, &m)
	snap := reg.Snapshot()
	for name, want := range map[string]uint64{
		"kernel.newview_calls": 10,
		"kernel.muls":          200,
		"kernel.adds":          100,
		"kernel.flops":         m.Flops(),
		"kernel.cache_hits":    3,
	} {
		if v, ok := snap.CounterValue(name); !ok || v != want {
			t.Errorf("%s = %d (present %v), want %d", name, v, ok, want)
		}
	}
	// Republishing updated totals overwrites, not accumulates.
	m.NewviewCalls = 25
	obs.PublishMeter(reg, &m)
	snap = reg.Snapshot()
	if v, _ := snap.CounterValue("kernel.newview_calls"); v != 25 {
		t.Fatalf("republished newview_calls = %d, want 25", v)
	}
	obs.PublishMeter(nil, &m) // nil registry must be a no-op
}
