package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"relidev"
)

func TestParseScheme(t *testing.T) {
	tests := map[string]bool{
		"voting": true, "ac": true, "available-copy": true, "nac": true, "naive": true,
		"paxos": false, "": false,
	}
	for in, ok := range tests {
		_, err := relidev.ParseScheme(in)
		if (err == nil) != ok {
			t.Fatalf("ParseScheme(%q) err = %v, want ok=%v", in, err, ok)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run(0, "", "naive", "", "", 0, 0, 8, 256, false, "", 0); err == nil {
		t.Fatal("missing peers accepted")
	}
	if err := run(0, "0=127.0.0.1:0", "bogus", "", "", 0, 0, 8, 256, false, "", 0); err == nil {
		t.Fatal("bogus scheme accepted")
	}
	if err := run(1, "0=127.0.0.1:0", "naive", "", "", 0, 0, 8, 256, false, "", 0); err == nil {
		t.Fatal("id missing from peer map accepted")
	}
}

func TestStoreDesc(t *testing.T) {
	if storeDesc("", "") != "in-memory store" || storeDesc("/x", "") != "/x" {
		t.Fatal("storeDesc mismatch")
	}
	if storeDesc("/x", "/d") != "segment store /d" || storeDesc("", "/d") != "segment store /d" {
		t.Fatal("storeDesc segment-dir mismatch")
	}
}

// TestDebugSurfaceServesMetrics is the -debug-addr integration test: a
// real three-site TCP deployment with site 0 metered, a replicated
// write, then the debug endpoints checked over actual HTTP — JSON
// metrics, Prometheus text, the trace ring, and pprof.
func TestDebugSurfaceServesMetrics(t *testing.T) {
	ctx := context.Background()
	geom := relidev.Geometry{BlockSize: 64, NumBlocks: 8}

	// Reserve loopback addresses with a bootstrap pass on :0.
	addrs := make(map[int]string, 3)
	for i := 0; i < 3; i++ {
		s, err := relidev.OpenRemote(relidev.RemoteConfig{
			Self:     i,
			Peers:    map[int]string{i: "127.0.0.1:0"},
			Scheme:   relidev.NaiveAvailableCopy,
			Geometry: geom,
		})
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = s.Addr()
		s.Close()
	}
	sites := make([]*relidev.RemoteSite, 3)
	for i := 0; i < 3; i++ {
		s, err := relidev.OpenRemote(relidev.RemoteConfig{
			Self:     i,
			Peers:    addrs,
			Scheme:   relidev.NaiveAvailableCopy,
			Geometry: geom,
			Timeout:  time.Second,
			Metered:  i == 0,
		})
		if err != nil {
			t.Fatal(err)
		}
		sites[i] = s
		defer s.Close()
	}

	srv, ln, err := serveDebug(sites[0], "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	payload := make([]byte, geom.BlockSize)
	copy(payload, "observed write")
	if err := sites[0].Device().WriteBlock(ctx, 3, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := sites[0].Device().ReadBlock(ctx, 3); err != nil {
		t.Fatal(err)
	}

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d\n%s", path, resp.StatusCode, body)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	// /metrics: a JSON snapshot with the write's counter series.
	body, ctype := get("/metrics")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("/metrics content type %q", ctype)
	}
	var snap struct {
		Counters []struct {
			Name   string            `json:"name"`
			Labels map[string]string `json:"labels"`
			Value  uint64            `json:"value"`
		} `json:"counters"`
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics is not JSON: %v\n%s", err, body)
	}
	var sawWrite bool
	for _, c := range snap.Counters {
		if c.Name == "relidev_op_completions_total" && c.Labels["op"] == "write" && c.Labels["scheme"] == "naive" && c.Value > 0 {
			sawWrite = true
		}
	}
	if !sawWrite {
		t.Errorf("write not visible in /metrics:\n%s", body)
	}

	// /metrics.prom: the same series in Prometheus text format.
	body, ctype = get("/metrics.prom")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("/metrics.prom content type %q", ctype)
	}
	if !strings.Contains(body, `relidev_op_completions_total{op="write",scheme="naive",site="site0"} 1`) {
		t.Errorf("write series missing from Prometheus exposition:\n%s", body)
	}

	// /trace: the ring retained the operation spans.
	body, _ = get("/trace")
	if !strings.Contains(body, `"op_start"`) || !strings.Contains(body, `"op_end"`) {
		t.Errorf("trace missing op spans:\n%s", body)
	}

	// /debug/pprof/: the standard profiling index and a sub-handler.
	if body, _ = get("/debug/pprof/"); !strings.Contains(body, "profile") {
		t.Errorf("pprof index unexpected:\n%s", body)
	}
	get("/debug/pprof/cmdline")

	// An unmetered site has no debug surface to serve.
	if _, err := sites[1].DebugHandler(); err == nil {
		t.Error("unmetered site offered a debug handler")
	}
}

// TestClusterTraceStitchesCrossSiteWrite is the distributed-tracing
// acceptance test: a real three-site TCP deployment with every site
// metered, one replicated write, then /trace/cluster on the
// coordinator fetched over actual HTTP, with no peer's debug surface
// served. The merged rings must stitch into a single complete span
// tree for the write, with spans recorded by every participating site.
func TestClusterTraceStitchesCrossSiteWrite(t *testing.T) {
	ctx := context.Background()
	geom := relidev.Geometry{BlockSize: 64, NumBlocks: 8}

	addrs := make(map[int]string, 3)
	for i := 0; i < 3; i++ {
		s, err := relidev.OpenRemote(relidev.RemoteConfig{
			Self:     i,
			Peers:    map[int]string{i: "127.0.0.1:0"},
			Scheme:   relidev.AvailableCopy,
			Geometry: geom,
		})
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = s.Addr()
		s.Close()
	}
	sites := make([]*relidev.RemoteSite, 3)
	for i := 0; i < 3; i++ {
		s, err := relidev.OpenRemote(relidev.RemoteConfig{
			Self:     i,
			Peers:    addrs,
			Scheme:   relidev.AvailableCopy,
			Geometry: geom,
			Timeout:  time.Second,
			Metered:  true,
		})
		if err != nil {
			t.Fatal(err)
		}
		sites[i] = s
		defer s.Close()
	}

	// Only the coordinator serves a debug surface: /trace/cluster pulls
	// the peers' rings over the RPC plane, not over their HTTP.
	srv, ln, err := serveDebug(sites[0], "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	payload := make([]byte, geom.BlockSize)
	copy(payload, "traced write")
	if err := sites[0].Device().WriteBlock(ctx, 5, payload); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + ln.Addr().String() + "/trace/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/trace/cluster status %d\n%s", resp.StatusCode, body)
	}
	var out struct {
		Traces []struct {
			TraceID uint64 `json:"trace_id"`
			Root    *struct {
				Site int    `json:"site"`
				Op   string `json:"op"`
				Kind string `json:"kind"`
			} `json:"root"`
			Orphans []json.RawMessage `json:"orphans"`
			Sites   []int             `json:"sites"`
			Spans   int               `json:"spans"`
		} `json:"traces"`
		Errors map[string]string `json:"errors"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("/trace/cluster is not JSON: %v\n%s", err, body)
	}
	if len(out.Errors) != 0 {
		t.Fatalf("peer trace pulls failed: %v", out.Errors)
	}

	// Exactly one write operation ran, so exactly one tree roots an "op"
	// span for a write at site 0 — complete (no orphans) and spanning
	// every site the replicated write touched.
	var found int
	for _, tr := range out.Traces {
		if tr.Root == nil || tr.Root.Kind != "op" || tr.Root.Op != "write" {
			continue
		}
		found++
		if tr.Root.Site != 0 {
			t.Errorf("write rooted at site %d, want 0", tr.Root.Site)
		}
		if len(tr.Orphans) != 0 {
			t.Errorf("write tree has %d orphaned spans:\n%s", len(tr.Orphans), body)
		}
		if len(tr.Sites) != 3 || tr.Sites[0] != 0 || tr.Sites[1] != 1 || tr.Sites[2] != 2 {
			t.Errorf("write tree sites = %v, want [0 1 2]", tr.Sites)
		}
		// At minimum: the op span, the broadcast fan-out's rpc span, and
		// one handle span per remote peer (contributed by the peers'
		// rings — proof the wire carried the span context).
		if tr.Spans < 4 {
			t.Errorf("write tree has only %d spans:\n%s", tr.Spans, body)
		}
	}
	if found != 1 {
		t.Fatalf("stitched %d write trees, want exactly 1:\n%s", found, body)
	}
}

// TestObjectivesAreThePreMergeSet pins what a blockserver alerts on —
// a site metered at the default -telemetry-step, as run opens it, in a
// three-site voting group: the set it had before health rules and SLOs
// became one list, less conformance drift.
func TestObjectivesAreThePreMergeSet(t *testing.T) {
	site, err := relidev.OpenRemote(relidev.RemoteConfig{
		Self: 0, Peers: map[int]string{0: "127.0.0.1:0", 1: "127.0.0.1:1", 2: "127.0.0.1:2"},
		Scheme: relidev.Voting, Metered: true, TelemetryStep: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer site.Close()
	var names []string
	for _, view := range []func() (relidev.AlertReport, error){site.Health, site.SLOs} {
		rep, err := view()
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range rep.Objectives {
			names = append(names, o.Name)
		}
	}
	want := "quorum_margin_voting error_rate batcher_occupancy read_latency_voting write_availability_voting"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("blockserver objectives:\n got %s\nwant %s", got, want)
	}
}

// objectiveFamilies maps each objective a blockserver evaluates to the
// metric families its signal reads. An objective whose families no
// serving site exports can never fire, so every objective needs an
// entry here, and TestObjectivesHaveProducers checks a live site
// exports every family listed.
var objectiveFamilies = map[string][]string{
	"quorum_margin_voting":      {"relidev_op_participants_total", "relidev_op_completions_total"},
	"error_rate":                {"relidev_op_failures_total", "relidev_op_attempts_total"},
	"batcher_occupancy":         {"relidev_group_commit_batch_occupancy"},
	"read_latency_voting":       {"relidev_op_latency_ns"},
	"write_availability_voting": {"relidev_op_failures_total", "relidev_op_attempts_total"},
}

// TestObjectivesHaveProducers runs a three-site voting group over
// loopback TCP configured the way run configures a site — segment
// store, group commit, metered with a telemetry step — through
// writes, reads and one site down, then checks that site 0's /metrics
// carries every family its objectives read.
func TestObjectivesHaveProducers(t *testing.T) {
	ctx := context.Background()
	geom := relidev.Geometry{BlockSize: 64, NumBlocks: 8}
	objs := relidev.DefaultObjectives(relidev.Voting, 3)
	for _, o := range objs {
		if len(objectiveFamilies[o.Name]) == 0 {
			t.Fatalf("objective %s has no entry in objectiveFamilies", o.Name)
		}
	}

	addrs := make(map[int]string, 3)
	for i := 0; i < 3; i++ {
		s, err := relidev.OpenRemote(relidev.RemoteConfig{
			Self: i, Peers: map[int]string{i: "127.0.0.1:0"}, Scheme: relidev.Voting, Geometry: geom,
		})
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = s.Addr()
		s.Close()
	}
	sites := make([]*relidev.RemoteSite, 3)
	for i := range sites {
		s, err := relidev.OpenRemote(relidev.RemoteConfig{
			Self:             i,
			Peers:            addrs,
			Scheme:           relidev.Voting,
			Geometry:         geom,
			StoreDir:         t.TempDir(),
			GroupCommitBatch: 4,
			Timeout:          time.Second,
			Metered:          true,
			TelemetryStep:    10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		sites[i] = s
		defer s.Close()
	}
	srv, ln, err := serveDebug(sites[0], "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	dev := sites[0].Device()
	payload := make([]byte, geom.BlockSize)
	exercise := func() {
		for b := relidev.Index(0); int(b) < geom.NumBlocks; b++ {
			if err := dev.WriteBlock(ctx, b, payload); err != nil {
				t.Fatal(err)
			}
			if _, err := dev.ReadBlock(ctx, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	exercise()
	sites[2].Close()
	exercise() // a bare quorum of two still serves

	resp, err := http.Get("http://" + ln.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap map[string][]struct {
		Name string `json:"name"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("/metrics is not JSON: %v", err)
	}
	exported := make(map[string]bool)
	for _, series := range snap {
		for _, s := range series {
			exported[s.Name] = true
		}
	}
	for _, o := range objs {
		for _, family := range objectiveFamilies[o.Name] {
			if !exported[family] {
				t.Errorf("objective %s reads %s, which /metrics does not export", o.Name, family)
			}
		}
	}
}
