package obs

import (
	"context"
	"fmt"
	"net/http"
	"sort"

	"relidev/internal/protocol"
)

// The transport side of the aggregation plane: a designated aggregator
// broadcasts TelemetryPullRequest to its peers, decodes the snapshot
// replies, and merges them (plus its own registry) into the cluster
// view. Pulls ride the same transport as file operations — so the
// scrape traffic is metered, fault-injected, and priced like any other
// kind — but under the OpTelemetry context label, which keeps it out of
// the §5 write/read/recovery brackets.

// PullSnapshots scrapes every peer's registry over the transport. Down
// or unreachable peers degrade rather than fail: they appear in errs
// and contribute nothing to snaps. The context is labelled OpTelemetry
// so the transport attributes the traffic to the telemetry class.
func PullSnapshots(ctx context.Context, t protocol.Transport, from protocol.SiteID, peers []protocol.SiteID) (snaps map[protocol.SiteID]Snapshot, errs map[protocol.SiteID]error) {
	snaps = make(map[protocol.SiteID]Snapshot, len(peers))
	errs = make(map[protocol.SiteID]error)
	if len(peers) == 0 {
		return snaps, errs
	}
	ctx = protocol.WithOp(ctx, protocol.OpTelemetry)
	for id, res := range t.Broadcast(ctx, from, peers, protocol.TelemetryPullRequest{}) {
		if res.Err != nil {
			errs[id] = res.Err
			continue
		}
		reply, ok := res.Resp.(protocol.TelemetryPullReply)
		if !ok {
			errs[id] = fmt.Errorf("obs: unexpected telemetry reply %T", res.Resp)
			continue
		}
		snap, err := DecodeSnapshot(reply.Snap)
		if err != nil {
			errs[id] = fmt.Errorf("obs: decode telemetry snapshot: %w", err)
			continue
		}
		snaps[id] = snap
	}
	return snaps, errs
}

// ClusterPull builds the cluster metrics view: the aggregator's own
// snapshot (local; nil contributes nothing) merged with every peer's
// pulled registry. Peer failures degrade to a partial view reported in
// errs, mirroring ClusterTraceHandler's semantics — one site down must
// never take the cluster view down with it.
func ClusterPull(ctx context.Context, t protocol.Transport, from protocol.SiteID, peers []protocol.SiteID, local func() Snapshot) (Snapshot, map[protocol.SiteID]error) {
	snaps, errs := PullSnapshots(ctx, t, from, peers)
	merged := make([]Snapshot, 0, len(snaps)+1)
	if local != nil {
		merged = append(merged, local())
	}
	// Deterministic merge order (MergeSnapshots is order-insensitive,
	// but iterate sorted anyway so any future tie-breaking stays stable).
	ids := make([]protocol.SiteID, 0, len(snaps))
	for id := range snaps {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		merged = append(merged, snaps[id])
	}
	return MergeSnapshots(merged...), errs
}

// ClusterMetrics is the JSON shape served at /cluster/metrics: the
// merged view plus the per-peer errors of a degraded scrape.
type ClusterMetrics struct {
	Metrics Snapshot          `json:"metrics"`
	Errors  map[string]string `json:"errors,omitempty"`
}

// NewClusterMetrics renders what a ClusterPull returned.
func NewClusterMetrics(snap Snapshot, errs map[protocol.SiteID]error) ClusterMetrics {
	errMsgs := make(map[string]string, len(errs))
	for id, err := range errs {
		errMsgs[id.String()] = err.Error()
	}
	return ClusterMetrics{Metrics: snap, Errors: errMsgs}
}

// ClusterMetricsHandler serves the cluster metrics view over HTTP:
// each request runs pull (typically a ClusterPull closure) and renders
// the merged snapshot with any per-peer scrape errors. Peer failures
// degrade to a partial view, exactly like /trace/cluster.
func ClusterMetricsHandler(pull func(ctx context.Context) (Snapshot, map[protocol.SiteID]error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, NewClusterMetrics(pull(r.Context())))
	}
}
