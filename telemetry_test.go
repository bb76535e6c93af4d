package relidev_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"relidev"
)

// telemetryWorkload runs a small mixed workload from several sites so
// every site's registry slice carries series.
func telemetryWorkload(t *testing.T, c *relidev.Cluster) {
	t.Helper()
	ctx := context.Background()
	for site := 0; site < c.Sites(); site++ {
		dev, err := c.Device(site)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, c.Geometry().BlockSize)
		copy(data, "telemetry")
		for b := 0; b < 4; b++ {
			if err := dev.WriteBlock(ctx, relidev.Index(b), data); err != nil {
				t.Fatalf("write site %d block %d: %v", site, b, err)
			}
			if _, err := dev.ReadBlock(ctx, relidev.Index(b)); err != nil {
				t.Fatalf("read site %d block %d: %v", site, b, err)
			}
		}
	}
}

// TestClusterMetricsEqualsLocalSnapshot is the aggregation plane's
// exactness claim: the cluster view — every site's registry slice
// scraped over the wire and merged with the aggregator's site-less
// residue — reconstructs the full registry snapshot exactly. Counters
// sum, histograms merge, nothing drops.
func TestClusterMetricsEqualsLocalSnapshot(t *testing.T) {
	for _, scheme := range allSchemes() {
		t.Run(scheme.String(), func(t *testing.T) {
			c, err := relidev.New(5, scheme, relidev.WithMetering())
			if err != nil {
				t.Fatal(err)
			}
			telemetryWorkload(t, c)

			full, err := c.MetricsJSON()
			if err != nil {
				t.Fatal(err)
			}
			raw, err := c.ClusterMetricsJSON(context.Background())
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
			var want, got any
			if err := json.Unmarshal(full, &want); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(cluster.Metrics, &got); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("merged cluster view diverges from the registry snapshot:\nwant %s\ngot  %s", full, cluster.Metrics)
			}
		})
	}
}

// TestClusterMetricsDegradesWithSiteDown: scraping with a failed site
// yields a partial view plus a per-site error — the failed site's slice
// is missing, every other site's survives, and the call itself
// succeeds. One site down must never take the cluster view down.
func TestClusterMetricsDegradesWithSiteDown(t *testing.T) {
	c, err := relidev.New(5, relidev.Voting, relidev.WithMetering())
	if err != nil {
		t.Fatal(err)
	}
	telemetryWorkload(t, c)
	if err := c.Fail(3); err != nil {
		t.Fatal(err)
	}
	raw, err := c.ClusterMetricsJSON(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var cluster struct {
		Metrics struct {
			Counters []struct {
				Name   string            `json:"name"`
				Labels map[string]string `json:"labels"`
			} `json:"counters"`
		} `json:"metrics"`
		Errors map[string]string `json:"errors"`
	}
	if err := json.Unmarshal(raw, &cluster); err != nil {
		t.Fatal(err)
	}
	if _, down := cluster.Errors["site3"]; !down || len(cluster.Errors) != 1 {
		t.Fatalf("errors = %v, want exactly site 3 reported down", cluster.Errors)
	}
	others := 0
	for _, p := range cluster.Metrics.Counters {
		switch p.Labels["site"] {
		case "site3":
			t.Fatalf("failed site's slice leaked into the degraded view: %+v", p)
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
// public surface: sampling fills the ring, the ring serves the query
// API, the SLO engine evaluates a healthy cluster to zero firing
// alerts, and the debug endpoints answer.
func TestTelemetryAndSLOViaPublicAPI(t *testing.T) {
	pol := relidev.RepairPolicy{}
	c, err := relidev.New(3, relidev.NaiveAvailableCopy,
		relidev.WithTelemetry(time.Second),
		relidev.WithObjectives(relidev.DefaultObjectives(relidev.NaiveAvailableCopy, 3, 0.05, 128, &pol)...),
		relidev.WithBackgroundRepair(pol),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.TelemetryStep(); err != nil {
		t.Fatal(err)
	}
	telemetryWorkload(t, c)
	for i := 0; i < 3; i++ {
		if err := c.SampleTelemetry(); err != nil {
			t.Fatal(err)
		}
		telemetryWorkload(t, c)
	}

	ts, err := c.TimeSeriesJSON(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(ts), "relidev_op_attempts_total") {
		t.Fatalf("time series missing op counters:\n%s", ts)
	}

	rep, err := c.SLOs()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Objectives) != 3 {
		t.Fatalf("objectives = %d, want 3 (latency, availability, freshness)", len(rep.Objectives))
	}
	if rep.Firing != 0 || rep.Overall != relidev.SeverityOK {
		t.Fatalf("healthy cluster fires alerts: %+v", rep)
	}

	h, err := c.DebugHandler()
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	for _, path := range []string{"/timeseries?window=1h&step=1s", "/slo", "/cluster/metrics"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		var v any
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("%s: not JSON: %v", path, err)
		}
		resp.Body.Close()
	}
}

// TestRemoteClusterMetrics runs the aggregation plane over real TCP:
// three RemoteSites on loopback, each with its own registry, scraped by
// site 0's TelemetryPull broadcast into one merged view — then one site
// closes and the view degrades partially instead of failing.
func TestRemoteClusterMetrics(t *testing.T) {
	ctx := context.Background()
	geom := relidev.Geometry{BlockSize: 128, NumBlocks: 16}
	addrs := make(map[int]string, 3)
	var boot []*relidev.RemoteSite
	for i := 0; i < 3; i++ {
		s, err := relidev.OpenRemote(relidev.RemoteConfig{
			Self:     i,
			Peers:    map[int]string{i: "127.0.0.1:0"},
			Scheme:   relidev.Voting,
			Geometry: geom,
		})
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = s.Addr()
		boot = append(boot, s)
	}
	for _, s := range boot {
		s.Close()
	}
	sites := make([]*relidev.RemoteSite, 3)
	for i := 0; i < 3; i++ {
		s, err := relidev.OpenRemote(relidev.RemoteConfig{
			Self:          i,
			Peers:         addrs,
			Scheme:        relidev.Voting,
			Geometry:      geom,
			Timeout:       time.Second,
			Metered:       true,
			TelemetryStep: 5 * time.Millisecond,
			Objectives: relidev.DefaultObjectives(relidev.Voting, 3, 0.05, 16,
				&relidev.RepairPolicy{}),
		})
		if err != nil {
			t.Fatal(err)
		}
		sites[i] = s
		defer func() { s.Close() }()
	}

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
	var cluster struct {
		Metrics struct {
			Counters []struct {
				Name   string            `json:"name"`
				Labels map[string]string `json:"labels"`
			} `json:"counters"`
		} `json:"metrics"`
		Errors map[string]string `json:"errors"`
	}
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
	h, err := sites[0].DebugHandler()
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	for _, path := range []string{"/cluster/metrics", "/timeseries", "/slo"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		var v any
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("%s: not JSON: %v", path, err)
		}
		resp.Body.Close()
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
	cluster.Errors = nil
	cluster.Metrics.Counters = nil
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
// new accessors.
func TestTelemetryAccessorsRequireOptions(t *testing.T) {
	bare, err := relidev.New(3, relidev.Voting)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bare.ClusterMetricsJSON(context.Background()); err != relidev.ErrNotMetered {
		t.Fatalf("ClusterMetricsJSON on unmetered cluster: %v", err)
	}
	metered, err := relidev.New(3, relidev.Voting, relidev.WithMetering())
	if err != nil {
		t.Fatal(err)
	}
	if err := metered.SampleTelemetry(); err != relidev.ErrNoTelemetry {
		t.Fatalf("SampleTelemetry without telemetry: %v", err)
	}
	if _, err := metered.TimeSeriesJSON(0, 0); err != relidev.ErrNoTelemetry {
		t.Fatalf("TimeSeriesJSON without telemetry: %v", err)
	}
	if _, err := metered.SLOs(); err != relidev.ErrNoObjectives {
		t.Fatalf("SLOs without objectives: %v", err)
	}
	sampled, err := relidev.New(3, relidev.Voting, relidev.WithTelemetry(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sampled.SLOs(); err != relidev.ErrNoObjectives {
		t.Fatalf("SLOs with telemetry but no objectives: %v", err)
	}
}
