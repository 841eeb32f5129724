package obs

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// CollectFunc writes the current Prometheus exposition; Handler calls it on
// every GET /metrics.
type CollectFunc func(w http.ResponseWriter) error

// NewMux builds the standard observability mux: GET /metrics served by
// collect, the net/http/pprof endpoints under /debug/pprof/, and any extra
// handlers the caller registers afterwards (livenet adds /status and
// /statusz, one document on two routes).
func NewMux(collect CollectFunc) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := collect(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// RecorderMux is NewMux over a single recorder with no extra labels.
func RecorderMux(r *Recorder) *http.ServeMux {
	return NewMux(func(w http.ResponseWriter) error { return r.WriteProm(w, "") })
}

// Serve starts an HTTP server for h on addr (use ":0" or "127.0.0.1:0" for
// an OS-assigned port) and returns the bound address. The server shuts down
// when ctx is cancelled; wg, when non-nil, tracks the serving goroutines so
// callers can wait for a clean exit.
func Serve(ctx context.Context, wg *sync.WaitGroup, addr string, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: metrics listener on %q: %w", addr, err)
	}
	srv := &http.Server{Handler: h}
	if wg != nil {
		wg.Add(2)
	}
	go func() {
		if wg != nil {
			defer wg.Done()
		}
		srv.Serve(ln)
	}()
	go func() {
		if wg != nil {
			defer wg.Done()
		}
		<-ctx.Done()
		srv.Close()
	}()
	return ln.Addr().String(), nil
}
