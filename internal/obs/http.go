package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/pprof"
)

// NewDebugMux builds the debug HTTP surface for one observer:
//
//	/metrics        — metrics snapshot as JSON
//	/metrics.prom   — the same snapshot in Prometheus text format
//	/trace          — retained trace events as JSON (404 when tracing is off)
//	/trace/tree     — stitched span trees as JSON
//	/profile        — critical-path phase breakdown (JSON; ?format=flame
//	                  for the text flamegraph)
//	/debug/pprof/*  — the standard net/http/pprof handlers
//
// The blockserver binds it behind -debug-addr; embedders can mount it
// anywhere. The mux only reads snapshots, so serving it concurrently
// with live traffic is safe.
func NewDebugMux(o *Observer) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, o.Snapshot())
	})
	mux.HandleFunc("/metrics.prom", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		o.Snapshot().WritePrometheus(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		t := o.Tracer()
		if t == nil {
			http.Error(w, "tracing disabled", http.StatusNotFound)
			return
		}
		WriteJSON(w, http.StatusOK, traceDump{t.Dropped(), t.Events()})
	})
	mux.HandleFunc("/trace/tree", func(w http.ResponseWriter, r *http.Request) {
		if o.Tracer() == nil {
			http.Error(w, "tracing disabled", http.StatusNotFound)
			return
		}
		writeTraceTrees(w, o.TraceTrees())
	})
	mux.HandleFunc("/profile", ProfileHandler(o))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ProfileHandler serves the critical-path profile: JSON by default, a
// text flamegraph with ?format=flame.
func ProfileHandler(o *Observer) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		p := o.CriticalPath()
		if r.URL.Query().Get("format") == "flame" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			io.WriteString(w, p.Flame())
			return
		}
		WriteJSON(w, http.StatusOK, p)
	}
}

// WriteJSON answers a debug route with v as indented JSON: the one
// rendering every endpoint of the debug surface shares.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeTraceTrees(w http.ResponseWriter, trees []*TraceTree) {
	WriteJSON(w, http.StatusOK, struct {
		Traces []*TraceTree `json:"traces"`
	}{trees})
}

// traceDump is the /trace endpoint's JSON shape.
type traceDump struct {
	Dropped uint64  `json:"dropped"`
	Events  []Event `json:"events"`
}
