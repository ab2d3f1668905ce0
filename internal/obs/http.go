package obs

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// NewDebugMux builds the live-introspection handler served under
// -debug-addr: the standard net/http/pprof endpoints (CPU/heap profiles,
// goroutine dumps, execution traces), expvar under /debug/vars, the
// registry's JSON snapshot under /metrics, and — when flight is non-nil —
// the flight recorder's window under /debug/flight (the live counterpart of
// `raxml -flight-out`).
func NewDebugMux(reg *Registry, flight *FlightRecorder) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		reg.WriteJSON(w) //nolint:errcheck // headers sent; nothing left to report
	})
	if flight != nil {
		mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			flight.WriteJSON(w) //nolint:errcheck // headers sent
		})
	}
	mux.HandleFunc("/{$}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "raxml debug server")
		fmt.Fprintln(w, "  /metrics             metrics registry snapshot (JSON)")
		if flight != nil {
			fmt.Fprintln(w, "  /debug/flight        flight recorder window (JSON)")
		}
		fmt.Fprintln(w, "  /debug/pprof/    pprof profile index")
		fmt.Fprintln(w, "  /debug/vars      expvar")
	})
	return mux
}

// StartDebugServer listens on addr (e.g. "localhost:6060"; a ":0" port
// picks a free one) and serves NewDebugMux(reg, flight) in the background.
// It returns the server — Close it to stop — and the bound address.
func StartDebugServer(addr string, reg *Registry, flight *FlightRecorder) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("obs: debug server: %w", err)
	}
	srv := &http.Server{Handler: NewDebugMux(reg, flight)}
	go srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return srv, ln.Addr(), nil
}
