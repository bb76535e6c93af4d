package relidev_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"relidev"
	"relidev/internal/obs"
)

// telemetryWorkload runs a small mixed workload from every site so
// every site's registry carries series.
func telemetryWorkload(t *testing.T, sites []*relidev.RemoteSite) {
	t.Helper()
	ctx := context.Background()
	for i, s := range sites {
		dev := s.Device()
		data := make([]byte, dev.Geometry().BlockSize)
		copy(data, "telemetry")
		for b := 0; b < 4; b++ {
			if err := dev.WriteBlock(ctx, relidev.Index(b), data); err != nil {
				t.Fatalf("write site %d block %d: %v", i, b, err)
			}
			if _, err := dev.ReadBlock(ctx, relidev.Index(b)); err != nil {
				t.Fatalf("read site %d block %d: %v", i, b, err)
			}
		}
	}
}

// clusterView is the /cluster/metrics shape with its counters decoded.
type clusterView struct {
	Metrics struct {
		Counters []struct {
			Name   string            `json:"name"`
			Labels map[string]string `json:"labels"`
		} `json:"counters"`
	} `json:"metrics"`
	Errors map[string]string `json:"errors"`
}

// TestClusterMetricsEqualsLocalSnapshot is the aggregation plane's
// exactness claim: the cluster view — every peer's registry scraped
// over the wire and merged with the aggregator's own — is exactly the
// merge of the sites' local snapshots. Counters sum, histograms merge,
// nothing drops.
func TestClusterMetricsEqualsLocalSnapshot(t *testing.T) {
	for _, scheme := range allSchemes() {
		t.Run(scheme.String(), func(t *testing.T) {
			sites := openGroup(t, 3, relidev.RemoteConfig{Scheme: scheme, Metered: true,
				Geometry: relidev.Geometry{BlockSize: 64, NumBlocks: 8}})
			telemetryWorkload(t, sites)

			raw, err := sites[0].ClusterMetricsJSON(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			var cluster struct {
				Metrics json.RawMessage   `json:"metrics"`
				Errors  map[string]string `json:"errors"`
			}
			if err := json.Unmarshal(raw, &cluster); err != nil {
				t.Fatalf("cluster view is not JSON: %v", err)
			}
			if len(cluster.Errors) != 0 {
				t.Fatalf("healthy cluster scrape degraded: %v", cluster.Errors)
			}
			// Nothing moves a registry after the scrape: no poller runs,
			// and serving a pull records no metric.
			locals := make([]obs.Snapshot, len(sites))
			for i, s := range sites {
				h, err := s.DebugHandler()
				if err != nil {
					t.Fatal(err)
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
				if err := json.Unmarshal(rec.Body.Bytes(), &locals[i]); err != nil {
					t.Fatal(err)
				}
			}
			full, err := json.Marshal(obs.MergeSnapshots(locals...))
			if err != nil {
				t.Fatal(err)
			}
			var want, got any
			if err := json.Unmarshal(full, &want); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(cluster.Metrics, &got); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("merged cluster view diverges from the sites' snapshots:\nwant %s\ngot  %s", full, cluster.Metrics)
			}
		})
	}
}

// TestClusterMetricsDegradesWithSiteDown: scraping with a closed site
// yields a partial view plus a per-site error — the closed site's
// series are missing, every other site's survive, and the call itself
// succeeds. One site down must never take the cluster view down.
func TestClusterMetricsDegradesWithSiteDown(t *testing.T) {
	sites := openGroup(t, 3, relidev.RemoteConfig{Scheme: relidev.Voting, Metered: true,
		Geometry: relidev.Geometry{BlockSize: 64, NumBlocks: 8}})
	telemetryWorkload(t, sites)
	if err := sites[1].Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := sites[0].ClusterMetricsJSON(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var cluster clusterView
	if err := json.Unmarshal(raw, &cluster); err != nil {
		t.Fatal(err)
	}
	if _, down := cluster.Errors["site1"]; !down || len(cluster.Errors) != 1 {
		t.Fatalf("errors = %v, want exactly site 1 reported down", cluster.Errors)
	}
	others := 0
	for _, p := range cluster.Metrics.Counters {
		switch p.Labels["site"] {
		case "site1":
			t.Fatalf("closed site's series leaked into the degraded view: %+v", p)
		case "":
		default:
			others++
		}
	}
	if others == 0 {
		t.Fatal("degraded view lost the surviving sites' series too")
	}
}

// TestTelemetryAndSLOViaPublicAPI drives the whole plane through the
// public surface: the poller fills the ring, the ring serves the query
// API, the SLO engine evaluates a healthy deployment to zero firing
// alerts, and the debug endpoints answer.
func TestTelemetryAndSLOViaPublicAPI(t *testing.T) {
	sites := openGroup(t, 3, relidev.RemoteConfig{
		Scheme:        relidev.NaiveAvailableCopy,
		Geometry:      relidev.Geometry{BlockSize: 64, NumBlocks: 8},
		Metered:       true,
		TelemetryStep: 5 * time.Millisecond,
		Objectives:    relidev.DefaultObjectives(relidev.NaiveAvailableCopy, 3, 0.05),
	})
	telemetryWorkload(t, sites)
	srv := serveDebug(t, sites[0])
	for deadline := time.Now().Add(5 * time.Second); ; {
		if _, ts := get(t, srv, "/timeseries"); strings.Contains(ts, "relidev_op_attempts_total") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the poller never sampled the op counters into the ring")
		}
		time.Sleep(5 * time.Millisecond)
	}

	rep, err := sites[0].SLOs()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Objectives) != 2 {
		t.Fatalf("objectives = %d, want 2 (latency, availability)", len(rep.Objectives))
	}
	if rep.Firing != 0 || rep.Overall != relidev.SeverityOK {
		t.Fatalf("healthy deployment fires alerts: %+v", rep)
	}
	for _, path := range []string{"/timeseries?window=1h&step=1s", "/slo", "/cluster/metrics"} {
		code, body := get(t, srv, path)
		if code != 200 {
			t.Fatalf("%s: status %d", path, code)
		}
		var v any
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			t.Fatalf("%s: not JSON: %v", path, err)
		}
	}
}

// TestRemoteClusterMetrics runs the aggregation plane over real TCP:
// three RemoteSites on loopback, each with its own registry, scraped by
// site 0's TelemetryPull broadcast into one merged view — then one site
// closes and the view degrades partially instead of failing.
func TestRemoteClusterMetrics(t *testing.T) {
	ctx := context.Background()
	sites := openGroup(t, 3, relidev.RemoteConfig{
		Scheme:        relidev.Voting,
		Geometry:      relidev.Geometry{BlockSize: 128, NumBlocks: 16},
		Metered:       true,
		TelemetryStep: 5 * time.Millisecond,
		Objectives:    relidev.DefaultObjectives(relidev.Voting, 3, 0.05),
	})

	payload := make([]byte, 128)
	copy(payload, "scraped over tcp")
	for i, s := range sites {
		if err := s.Device().WriteBlock(ctx, relidev.Index(i), payload); err != nil {
			t.Fatalf("write at site %d: %v", i, err)
		}
	}

	raw, err := sites[0].ClusterMetricsJSON(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var cluster clusterView
	if err := json.Unmarshal(raw, &cluster); err != nil {
		t.Fatalf("cluster view is not JSON: %v", err)
	}
	if len(cluster.Errors) != 0 {
		t.Fatalf("healthy deployment scrape degraded: %v", cluster.Errors)
	}
	seen := map[string]bool{}
	for _, p := range cluster.Metrics.Counters {
		if s := p.Labels["site"]; s != "" {
			seen[s] = true
		}
	}
	for _, want := range []string{"site0", "site1", "site2"} {
		if !seen[want] {
			t.Fatalf("merged view missing %s's slice; saw %v", want, seen)
		}
	}

	// The debug surface answers on every telemetry endpoint.
	srv := serveDebug(t, sites[0])
	for _, path := range []string{"/cluster/metrics", "/timeseries", "/slo"} {
		code, body := get(t, srv, path)
		if code != 200 {
			t.Fatalf("%s: status %d", path, code)
		}
		var v any
		if err := json.Unmarshal([]byte(body), &v); err != nil {
			t.Fatalf("%s: not JSON: %v", path, err)
		}
	}
	if rep, err := sites[0].SLOs(); err != nil || len(rep.Objectives) == 0 {
		t.Fatalf("remote SLO evaluation: %+v, %v", rep, err)
	}

	// Kill site 2 and scrape again: its slice drops out, its scrape
	// error is reported, the other sites' slices survive.
	if err := sites[2].Close(); err != nil {
		t.Fatal(err)
	}
	raw, err = sites[0].ClusterMetricsJSON(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cluster = clusterView{}
	if err := json.Unmarshal(raw, &cluster); err != nil {
		t.Fatal(err)
	}
	if _, down := cluster.Errors["site2"]; !down || len(cluster.Errors) != 1 {
		t.Fatalf("errors = %v, want exactly site 2 reported down", cluster.Errors)
	}
	seen = map[string]bool{}
	for _, p := range cluster.Metrics.Counters {
		seen[p.Labels["site"]] = true
	}
	if !seen["site0"] || !seen["site1"] {
		t.Fatalf("degraded view lost surviving sites' slices: %v", seen)
	}
}

// TestTelemetryAccessorsRequireOptions pins the error contract of the
// accessors: each refusal is typed, and its text names the setting the
// host was built without.
func TestTelemetryAccessorsRequireOptions(t *testing.T) {
	bare := openLoneSite(t, relidev.RemoteConfig{})
	if _, err := bare.ClusterMetricsJSON(context.Background()); !errors.Is(err, relidev.ErrNotMetered) {
		t.Fatalf("ClusterMetricsJSON on an unmetered site: %v", err)
	}
	if _, err := bare.SLOs(); !errors.Is(err, relidev.ErrNotMetered) {
		t.Fatalf("SLOs on an unmetered site: %v", err)
	}
	metered := openLoneSite(t, relidev.RemoteConfig{Metered: true})
	if _, err := metered.SLOs(); !errors.Is(err, relidev.ErrNoObjectives) {
		t.Fatalf("SLOs without objectives: %v", err)
	}
	sampled := openLoneSite(t, relidev.RemoteConfig{Metered: true, TelemetryStep: time.Hour})
	if _, err := sampled.SLOs(); !errors.Is(err, relidev.ErrNoObjectives) {
		t.Fatalf("SLOs with telemetry but no objectives: %v", err)
	}
	for err, setting := range map[error]string{relidev.ErrNotMetered: "RemoteConfig.Metered", relidev.ErrNoObjectives: "RemoteConfig.Objectives"} {
		if !strings.Contains(err.Error(), setting) {
			t.Errorf("%q does not name %s", err, setting)
		}
	}
}
