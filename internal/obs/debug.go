package obs

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
)

// DebugMux builds the unified debug surface every binary exposes:
//
//	/debug/vars     expvar JSON (Go's cmdline and memstats only)
//	/debug/pprof/*  the standard pprof handlers
//	/metrics        reg in Prometheus text exposition format
//
// Binaries with their own HTTP server (dynex-serve) mount these routes
// on their main mux; CLIs serve them on a side listener via ServeDebug.
func DebugMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	RegisterDebug(mux, reg)
	return mux
}

// RegisterDebug mounts the debug routes on an existing mux.
func RegisterDebug(mux *http.ServeMux, reg *Registry) {
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", reg.Handler())
}

// ServeDebug binds addr and serves the debug surface for the rest of
// the process lifetime. It returns the bound address (useful with
// ":0") — the CLI use case is fire-and-forget, so the server is never
// shut down and serve errors after a successful bind are dropped.
func ServeDebug(addr string, reg *Registry) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("debug listener: %w", err)
	}
	srv := &http.Server{Handler: DebugMux(reg)}
	//dynexcheck:allow goroutine-ctx deliberate process-lifetime server: ServeDebug is documented fire-and-forget, the listener dies with the process
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}
