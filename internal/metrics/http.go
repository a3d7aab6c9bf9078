package metrics

import (
	"expvar"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
)

// WriteJSON writes m's JSON document and a newline: the bytes /metrics
// serves and -metrics-dump writes.
func WriteJSON(w io.Writer, m *expvar.Map) error {
	_, err := io.WriteString(w, m.String()+"\n")
	return err
}

// NewMux builds the telemetry endpoint surface: /metrics (m as JSON)
// and /debug/pprof/* (the runtime profiles, mounted explicitly so the
// process never depends on http.DefaultServeMux). Extra handlers (a
// fabric worker's /healthz and /run) are mounted at their given paths.
func NewMux(m *expvar.Map, extra map[string]http.Handler) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		WriteJSON(w, m) //nolint:errcheck // client went away; nothing to do
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for path, h := range extra {
		mux.Handle(path, h)
	}
	return mux
}

// StartServer binds addr and serves h in a background goroutine,
// returning the server and the concrete bound address (useful with
// ":0"). The caller owns shutdown; CLI processes simply exit.
func StartServer(addr string, h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln) //nolint:errcheck // ends when the process exits
	return srv, ln.Addr().String(), nil
}
