package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"relidev/internal/protocol"
)

// The transport side of the aggregation plane (DESIGN.md §16): the host
// serving a cluster route broadcasts TelemetryPullRequest to its peers
// and folds the replies, with its own part, into one of two views — the
// merged registry at /cluster/metrics, the stitched trace trees at
// /trace/cluster. Pulls ride the same transport as file operations — so
// the scrape traffic is metered, fault-injected, and priced like any
// other kind — but under the OpTelemetry context label, which keeps it
// out of the §5 write/read/recovery brackets. Down or unreachable peers
// degrade a view rather than fail it: they appear in its errors and
// contribute nothing.

// A Puller broadcasts one telemetry pull — the trace events with
// traces set, the registry snapshot otherwise — and returns each
// answering peer's raw payload and each failed peer's error.
type Puller func(ctx context.Context, traces bool) (payloads map[protocol.SiteID][]byte, errs map[protocol.SiteID]error)

// Pull is the one broadcast behind every Puller: site from sends a
// TelemetryPull to each of peers over t, with the context labelled
// OpTelemetry so the transport attributes the traffic to the telemetry
// class.
func Pull(ctx context.Context, t protocol.Transport, from protocol.SiteID, peers []protocol.SiteID, traces bool) (payloads map[protocol.SiteID][]byte, errs map[protocol.SiteID]error) {
	payloads = make(map[protocol.SiteID][]byte, len(peers))
	errs = make(map[protocol.SiteID]error)
	if len(peers) == 0 {
		return payloads, errs
	}
	ctx = protocol.WithOp(ctx, protocol.OpTelemetry)
	for id, res := range t.Broadcast(ctx, from, peers, protocol.TelemetryPullRequest{Traces: traces}) {
		if res.Err != nil {
			errs[id] = res.Err
			continue
		}
		reply, ok := res.Resp.(protocol.TelemetryPullReply)
		if !ok {
			errs[id] = fmt.Errorf("obs: unexpected telemetry reply %T", res.Resp)
			continue
		}
		payloads[id] = reply.Snap
	}
	return payloads, errs
}

// Telemetry answers a peer's TelemetryPull — the hook
// site.Replica.SetTelemetryHook takes: the trace events with traces
// set, the registry snapshot otherwise, as JSON.
func (o *Observer) Telemetry(traces bool) []byte {
	var v any = o.Snapshot()
	if traces {
		v = o.Tracer().Events()
	}
	// Both are trees of plain values; marshalling cannot fail.
	b, _ := json.Marshal(v)
	return b
}

// pullDecoded runs one pull and decodes each payload into a T, in site
// order; a payload that does not decode becomes that peer's error. An
// empty payload (a site with no telemetry hook) decodes to the zero T.
func pullDecoded[T any](ctx context.Context, pull Puller, traces bool) ([]T, map[protocol.SiteID]error) {
	payloads, errs := pull(ctx, traces)
	out := make([]T, 0, len(payloads))
	for _, id := range sortedKeys(payloads) {
		var v T
		if b := payloads[id]; len(b) > 0 {
			if err := json.Unmarshal(b, &v); err != nil {
				errs[id] = fmt.Errorf("obs: decode telemetry payload: %w", err)
				continue
			}
		}
		out = append(out, v)
	}
	return out, errs
}

// ClusterPull builds the cluster metrics view: the host's own snapshot
// merged with every peer's pulled registry. The local part is taken
// after the pull, so it counts the pull's own traffic.
func ClusterPull(ctx context.Context, pull Puller, local func() Snapshot) (Snapshot, map[protocol.SiteID]error) {
	snaps, errs := pullDecoded[Snapshot](ctx, pull, false)
	return MergeSnapshots(append(snaps, local())...), errs
}

// ClusterTraces builds the cluster trace view's event set, ready for
// Stitch: every peer's pulled trace events appended to the host's own
// ring. The local ring is read after the pull, so the pull's own rpc
// span is there for the peers' handle spans to join.
func ClusterTraces(ctx context.Context, pull Puller, local *Tracer) ([]Event, map[protocol.SiteID]error) {
	remote, errs := pullDecoded[[]Event](ctx, pull, true)
	events := local.Events()
	for _, evs := range remote {
		events = append(events, evs...)
	}
	return events, errs
}

// ClusterMetrics is the JSON shape served at /cluster/metrics: the
// merged view plus the per-peer errors of a degraded scrape.
type ClusterMetrics struct {
	Metrics Snapshot          `json:"metrics"`
	Errors  map[string]string `json:"errors,omitempty"`
}

// ClusterMetricsHandler serves the cluster metrics view over HTTP: each
// request pulls every peer's registry and merges it with o's.
func ClusterMetricsHandler(o *Observer, pull Puller) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		snap, errs := ClusterPull(r.Context(), pull, o.Snapshot)
		WriteJSON(w, http.StatusOK, ClusterMetrics{Metrics: snap, Errors: errStrings(errs)})
	}
}

// ClusterTraceHandler serves the cluster trace view over HTTP: each
// request pulls every peer's trace events and stitches them with o's
// ring into span trees (404 when o does not trace).
func ClusterTraceHandler(o *Observer, pull Puller) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if o.Tracer() == nil {
			http.Error(w, "tracing disabled", http.StatusNotFound)
			return
		}
		events, errs := ClusterTraces(r.Context(), pull, o.Tracer())
		WriteJSON(w, http.StatusOK, struct {
			Traces []*TraceTree      `json:"traces"`
			Errors map[string]string `json:"errors,omitempty"`
		}{Stitch(events), errStrings(errs)})
	}
}

// errStrings keys a degraded pull's errors by site name ("site2").
func errStrings(errs map[protocol.SiteID]error) map[string]string {
	out := make(map[string]string, len(errs))
	for id, err := range errs {
		out[id.String()] = err.Error()
	}
	return out
}
