package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"relidev/internal/clock"
	"relidev/internal/protocol"
)

func TestDebugMux(t *testing.T) {
	clk := clock.NewManual()
	o := New(WithClock(clk), WithTracing(16))
	s := o.SchemeSite("voting", 0)
	func() {
		_, sp := s.StartOp(context.Background(), new(Scope), protocol.OpWrite, 1, s.Now())
		clk.Advance(1) // a non-zero latency, so the op has a local phase
		sp.Done(3, nil)
	}()

	srv := httptest.NewServer(NewDebugMux(o))
	defer srv.Close()

	get := func(path string) (*http.Response, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp, string(body)
	}

	resp, body := get("/metrics")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/metrics content type %q", ct)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics is not a JSON snapshot: %v", err)
	}
	if got := snap.CounterTotal(MetricOpAttempts, L("scheme", "voting")); got != 1 {
		t.Errorf("/metrics attempts = %d, want 1", got)
	}

	resp, body = get("/metrics.prom")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics.prom content type %q", ct)
	}
	if !strings.Contains(body, MetricOpAttempts+`{op="write",scheme="voting",site="site0"} 1`) {
		t.Errorf("/metrics.prom missing attempt series:\n%s", body)
	}

	_, body = get("/trace")
	var tracePage struct {
		Dropped uint64  `json:"dropped"`
		Events  []Event `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &tracePage); err != nil {
		t.Fatalf("/trace is not JSON: %v", err)
	}
	if len(tracePage.Events) != 3 { // op_start + phase(local) + op_end
		t.Errorf("/trace events = %d, want 3", len(tracePage.Events))
	}

	resp, _ = get("/debug/pprof/")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", resp.StatusCode)
	}
	resp, _ = get("/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status %d", resp.StatusCode)
	}
}

func TestDebugMuxTracingDisabled(t *testing.T) {
	srv := httptest.NewServer(NewDebugMux(New()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/trace without tracing: status %d, want 404", resp.StatusCode)
	}
}

// TestClusterTraceHandlerDegradesPartially: with one healthy peer, one
// peer answering garbage, and one down, the cluster trace endpoint
// still answers 200 with the stitchable union — the healthy peer's
// child span joins the local tree, the two broken peers are reported in
// the errors map by site, and spans whose parents lived on an
// uncollected site surface as orphans rather than vanishing.
func TestClusterTraceHandlerDegradesPartially(t *testing.T) {
	local := New(WithClock(clock.NewManual()), WithTracing(64))
	s := local.SchemeSite("voting", 0)
	func() {
		_, sp := s.StartOp(context.Background(), new(Scope), protocol.OpWrite, 1, s.Now())
		sp.Done(3, nil)
	}()
	evs := local.Tracer().Events()
	if len(evs) == 0 || evs[0].Kind != EvOpStart {
		t.Fatalf("local ring = %+v", evs)
	}
	root := evs[0]

	// The healthy peer's ring: a handle span parented to the local op,
	// plus a span whose parent lives on a site nobody collects.
	peer := New(WithClock(clock.NewManual()), WithTracing(64))
	peer.Tracer().Emit(Event{TraceID: root.TraceID, SpanID: 777, ParentID: root.SpanID,
		Site: 1, Kind: EvHandle, Op: protocol.OpWrite, Block: 1})
	peer.Tracer().Emit(Event{TraceID: 999, SpanID: 888, ParentID: 555,
		Site: 1, Kind: EvHandle, Op: protocol.OpRead, Block: 2})

	tr := &pullTransport{t: t, traces: true,
		payloads: map[protocol.SiteID][]byte{1: peer.Telemetry(true), 2: []byte("these bytes are not a trace dump")},
		down:     map[protocol.SiteID]bool{3: true}}
	rec := httptest.NewRecorder()
	ClusterTraceHandler(local, tr.puller(1, 2, 3))(rec, httptest.NewRequest("GET", "/trace/cluster", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d, want 200 despite degraded peers", rec.Code)
	}
	var page struct {
		Traces []*TraceTree      `json:"traces"`
		Errors map[string]string `json:"errors"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatalf("response JSON: %v", err)
	}

	if len(page.Errors) != 2 || page.Errors["site2"] == "" || page.Errors["site3"] == "" {
		t.Fatalf("errors = %v, want entries for the garbage site2 and the down site3", page.Errors)
	}

	var joined, orphaned bool
	for _, tree := range page.Traces {
		if tree.TraceID == root.TraceID && tree.Root != nil {
			for _, c := range tree.Root.Children {
				if c.SpanID == 777 && c.Site == 1 {
					joined = true
				}
			}
		}
		if tree.TraceID == 999 {
			for _, o := range tree.Orphans {
				if o.SpanID == 888 && o.Orphaned {
					orphaned = true
				}
			}
		}
	}
	if !joined {
		t.Error("healthy peer's handle span did not join the local op tree")
	}
	if !orphaned {
		t.Error("span with an uncollected parent was not surfaced as an orphan")
	}
}
