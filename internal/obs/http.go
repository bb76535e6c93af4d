package obs

import (
	"context"
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

// CollectTraces fetches each site's /trace endpoint (the urls point at
// debug muxes, e.g. "http://host:port/trace") and returns the merged
// event set, ready for Stitch. Collection degrades rather than fails:
// an unreachable or malformed site contributes nothing and is reported
// in errs by url — its spans simply end up missing from the stitched
// trees, surfacing as orphaned children (exactly the ring-eviction
// degradation mode). A nil client uses http.DefaultClient.
func CollectTraces(ctx context.Context, client *http.Client, urls []string) (events []Event, errs map[string]error) {
	if client == nil {
		client = http.DefaultClient
	}
	errs = make(map[string]error)
	for _, u := range urls {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
		if err != nil {
			errs[u] = err
			continue
		}
		resp, err := client.Do(req)
		if err != nil {
			errs[u] = err
			continue
		}
		var dump traceDump
		err = json.NewDecoder(resp.Body).Decode(&dump)
		resp.Body.Close()
		if err != nil {
			errs[u] = err
			continue
		}
		events = append(events, dump.Events...)
	}
	return events, errs
}

// ClusterTraceHandler serves cluster-wide stitched trace trees: on
// each request it collects the local ring plus every peer's /trace
// endpoint and stitches the union. Peer fetch failures degrade to
// partial trees and are listed in the response's "errors" field. The
// blockserver mounts it at /trace/cluster when given -trace-peers.
func ClusterTraceHandler(o *Observer, client *http.Client, peerURLs []string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t := o.Tracer()
		if t == nil {
			http.Error(w, "tracing disabled", http.StatusNotFound)
			return
		}
		events := t.Events()
		remote, errs := CollectTraces(r.Context(), client, peerURLs)
		events = append(events, remote...)
		errMsgs := make(map[string]string, len(errs))
		for u, err := range errs {
			errMsgs[u] = err.Error()
		}
		WriteJSON(w, http.StatusOK, struct {
			Traces []*TraceTree      `json:"traces"`
			Errors map[string]string `json:"errors,omitempty"`
		}{Stitch(events), errMsgs})
	}
}
