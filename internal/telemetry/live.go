package telemetry

import (
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
)

// liveRegistry is the registry currently served by the expvar export.
// expvar names are process-global and cannot be re-published, so the
// published Func indirects through this pointer.
var liveRegistry atomic.Pointer[Registry]

var publishOnce sync.Once

// LiveServer is a running diagnostics endpoint: expvar at /debug/vars,
// pprof under /debug/pprof/, and the registry in Prometheus text
// exposition at /metrics (JSON with ?format=json).
type LiveServer struct {
	// Addr is the bound listen address (useful with ":0").
	Addr string

	srv *http.Server
	ln  net.Listener
}

// NewMux returns the diagnostics routes — expvar at /debug/vars, pprof
// under /debug/pprof/, and reg's metrics at /metrics — as a mux other
// servers can graft application routes onto (cmd/pilotserve mounts its
// job API on the same listener). The /metrics page always reflects the
// most recently mounted registry: expvar's export is process-global, so
// there is one live registry per process.
func NewMux(reg *Registry) *http.ServeMux {
	liveRegistry.Store(reg)
	publishOnce.Do(func() {
		expvar.Publish("pilotrf", expvar.Func(func() interface{} {
			if r := liveRegistry.Load(); r != nil {
				return r.Map()
			}
			return map[string]float64{}
		}))
	})

	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		r := liveRegistry.Load()
		if r == nil {
			http.Error(w, "no registry", http.StatusServiceUnavailable)
			return
		}
		switch req.URL.Query().Get("format") {
		case "json":
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(r.Map())
		default:
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = r.WritePrometheus(w)
		}
	})
	return mux
}

// StartLive serves the registry's metrics on addr (e.g. ":8080") in a
// background goroutine and returns the running server. Pass the returned
// server's Close to stop it. Starting a second live server rebinds the
// expvar export to the new registry.
func StartLive(addr string, reg *Registry) (*LiveServer, error) {
	mux := NewMux(reg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: mux}
	ls := &LiveServer{Addr: ln.Addr().String(), srv: srv, ln: ln}
	go func() { _ = srv.Serve(ln) }()
	return ls, nil
}

// Close shuts the endpoint down.
func (l *LiveServer) Close() error { return l.srv.Close() }
