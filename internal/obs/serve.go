// Package obs is the command-line side of telemetry: the observability
// flag set the CLIs share and the live HTTP exposition endpoint. Only
// commands import it, so net/http, expvar and net/http/pprof stay out of
// the measuring libraries and out of every process that links only them.
package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"treadmill/internal/telemetry"
)

// HTTPServer is a live exposition endpoint for one telemetry.Registry:
//
//	/metrics       — the registry snapshot as JSON,
//	/debug/vars    — expvar (Go runtime memstats plus the registry under
//	                 the "treadmill" key),
//	/debug/pprof/  — the standard pprof handlers.
//
// It exists so a long campaign can be watched (and profiled) from outside
// the process while it runs.
type HTTPServer struct {
	srv *http.Server
	ln  net.Listener
}

// The expvar package forbids duplicate Publish names, so the "treadmill"
// var is published once per process and reads whichever registry served
// most recently.
var (
	expvarOnce sync.Once
	expvarReg  atomic.Pointer[telemetry.Registry]
)

// Serve starts the exposition endpoint for r on addr (e.g.
// "127.0.0.1:9090"). Close the returned server to stop it.
func Serve(r *telemetry.Registry, addr string) (*HTTPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	expvarReg.Store(r)
	expvarOnce.Do(func() {
		expvar.Publish("treadmill", expvar.Func(func() any {
			return expvarReg.Load().Snapshot()
		}))
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(r.Snapshot())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s := &HTTPServer{
		srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		ln:  ln,
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address.
func (s *HTTPServer) Addr() string { return s.ln.Addr().String() }

// Close stops the endpoint.
func (s *HTTPServer) Close() error { return s.srv.Close() }
