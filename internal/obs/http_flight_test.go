package obs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"raxmlcell/internal/obs"
)

// getWith issues one GET with an optional Accept header and returns the
// status, Content-Type and body.
func getWith(t *testing.T, url, accept string) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), body
}

// TestMetricsContentIsJSON: /metrics has one encoding. A Prometheus-style
// query or Accept header gets the registry's JSON snapshot like a bare GET.
func TestMetricsContentIsJSON(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("mw.jobs_done").Add(2)
	reg.Histogram("search.round_ms", obs.MsBuckets).Observe(1.5)
	srv := httptest.NewServer(obs.NewDebugMux(reg, nil))
	defer srv.Close()

	for _, c := range []struct{ query, accept string }{
		{"", ""},
		{"?format=prom", ""},
		{"", "text/plain;version=0.0.4"},
	} {
		code, ct, body := getWith(t, srv.URL+"/metrics"+c.query, c.accept)
		if code != http.StatusOK || ct != "application/json; charset=utf-8" {
			t.Fatalf("/metrics%s (Accept %q): status %d, Content-Type %q", c.query, c.accept, code, ct)
		}
		var snap obs.Snapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			t.Fatalf("/metrics%s (Accept %q) is not a Snapshot: %v\n%s", c.query, c.accept, err, body)
		}
		if v, ok := snap.CounterValue("mw.jobs_done"); !ok || v != 2 {
			t.Fatalf("/metrics%s (Accept %q): mw.jobs_done = %d, %v", c.query, c.accept, v, ok)
		}
		if len(snap.Histograms) != 1 || snap.Histograms[0].Count != 1 {
			t.Fatalf("/metrics%s (Accept %q): histograms %+v", c.query, c.accept, snap.Histograms)
		}
	}
}

func TestDebugFlightEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	f := obs.NewFlightRecorder(16, stepClock(time.Millisecond))
	f.Record("attempt", "inference#0", 1, 0, "")
	f.Record("quarantine", "inference#0", 2, 0, "crash")

	srv := httptest.NewServer(obs.NewDebugMux(reg, f))
	defer srv.Close()

	code, ct, body := getWith(t, srv.URL+"/debug/flight", "")
	if code != http.StatusOK || ct != "application/json; charset=utf-8" {
		t.Fatalf("/debug/flight: status %d, Content-Type %q", code, ct)
	}
	if n, err := obs.ValidateFlight(bytes.NewReader(body)); err != nil || n != 2 {
		t.Fatalf("/debug/flight payload invalid (%d events): %v\n%s", n, err, body)
	}

	// Without a recorder the endpoint must not exist.
	bare := httptest.NewServer(obs.NewDebugMux(reg, nil))
	defer bare.Close()
	if code, _, _ := getWith(t, bare.URL+"/debug/flight", ""); code != http.StatusNotFound {
		t.Fatalf("/debug/flight without a recorder: status %d, want 404", code)
	}
}

func TestStartDebugServerShutdown(t *testing.T) {
	reg := obs.NewRegistry()
	srv, addr, err := obs.StartDebugServer("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	url := fmt.Sprintf("http://%s/metrics", addr)
	if code, _, _ := getWith(t, url, ""); code != http.StatusOK {
		t.Fatalf("live server: status %d", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if _, err := http.Get(url); err == nil {
		t.Fatal("server still serving after Shutdown")
	}
}

func TestStartDebugServerPortInUse(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	if srv, _, err := obs.StartDebugServer(ln.Addr().String(), obs.NewRegistry(), nil); err == nil {
		srv.Close()
		t.Fatal("StartDebugServer on an occupied port did not fail")
	}
}
