package obs

import (
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// MetricsHandler returns an http.Handler that renders r in Prometheus text
// exposition format.
func MetricsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// StartDebugServer binds addr and, in a background goroutine, serves the
// Default registry at /metrics, the runtime profiler under /debug/pprof/,
// and captures at /debug/captures when that handler is non-nil. The
// server's own errors go to errorLog (nil: the log package's default). It
// returns the bound address (useful with a ":0" addr) and a
// shutdown-capable server. Debug listeners are opt-in and should bind
// loopback: pprof and metrics are operator surfaces, not public API.
func StartDebugServer(addr string, captures http.Handler, errorLog *log.Logger) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler(Default))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if captures != nil {
		mux.Handle("/debug/captures", captures)
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second, ErrorLog: errorLog}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String(), nil
}
