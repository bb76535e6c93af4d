package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"net"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"relidev"
	"relidev/internal/clock"
	"relidev/internal/obs"
	"relidev/internal/obs/alert"
	"relidev/internal/obs/plane"
	"relidev/internal/protocol"
)

var update = flag.Bool("update", false, "rewrite testdata/once.golden")

// startGroup opens a three-site voting group on loopback, each site
// with cfg's metering knobs, runs a small workload at site 0 and serves
// site 0's debug surface — what relitop points at on a blockserver.
func startGroup(t *testing.T, cfg relidev.RemoteConfig) *httptest.Server {
	t.Helper()
	cfg.Scheme, cfg.Timeout, cfg.Peers = relidev.Voting, time.Second, map[int]string{}
	for i := 0; i < 3; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Peers[i] = l.Addr().String()
		l.Close()
	}
	sites := make([]*relidev.RemoteSite, 3)
	for i := range sites {
		cfg.Self = i
		s, err := relidev.OpenRemote(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sites[i] = s
		t.Cleanup(func() { s.Close() })
	}
	ctx := context.Background()
	dev := sites[0].Device()
	data := make([]byte, dev.Geometry().BlockSize)
	copy(data, "relitop smoke")
	for b := 0; b < 4; b++ {
		if err := dev.WriteBlock(ctx, relidev.Index(b), data); err != nil {
			t.Fatal(err)
		}
		if _, err := dev.ReadBlock(ctx, relidev.Index(b)); err != nil {
			t.Fatal(err)
		}
	}
	h, err := sites[0].DebugHandler()
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

// TestOnceRendersDashboard is the CI smoke path: one -once frame
// against a live debug surface must carry the site census, the SLO
// summary, and the per-op table with its critical-path phases.
func TestOnceRendersDashboard(t *testing.T) {
	srv := startGroup(t, relidev.RemoteConfig{Metered: true,
		Objectives: relidev.DefaultObjectives(relidev.Voting, 3, 0.05)})
	var buf bytes.Buffer
	if err := run(&buf, srv.URL, time.Second, 5*time.Second, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"3 sites up, 0 down",
		"slo: 0 firing / 2 objectives",
		"SCHEME",
		"voting   write",
		"voting   read",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "\x1b[2J") {
		t.Error("-once frame carries ANSI control codes")
	}
	if strings.Contains(out, "scrape errors") {
		t.Errorf("healthy cluster shows scrape errors:\n%s", out)
	}
}

// TestOnceWithoutSLOEngine: a deployment without SLOs serves 404 on
// /slo; the dashboard drops the section instead of failing.
func TestOnceWithoutSLOEngine(t *testing.T) {
	srv := startGroup(t, relidev.RemoteConfig{Metered: true})
	var buf bytes.Buffer
	if err := run(&buf, srv.URL, time.Second, 5*time.Second, true); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "slo:") {
		t.Errorf("SLO section rendered without an engine:\n%s", buf.String())
	}
}

// TestOnceFailsWithoutServer: -once against a dead address must error
// so the CI smoke actually gates.
func TestOnceFailsWithoutServer(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "http://127.0.0.1:1", 0, 200*time.Millisecond, true); err == nil {
		t.Fatal("dead endpoint rendered a frame")
	}
}

func TestFmtNs(t *testing.T) {
	cases := map[float64]string{
		0: "-", 500: "500ns", 2500: "2.5µs", 3.2e6: "3.2ms", 1.5e9: "1.50s",
	}
	for in, want := range cases {
		if got := fmtNs(in); got != want {
			t.Errorf("fmtNs(%v) = %q, want %q", in, got, want)
		}
	}
}

// TestOnceGolden byte-pins one -once frame (scrape time masked)
// against a host on a manual clock: three steps of voting traffic, the
// second with every write failing.
func TestOnceGolden(t *testing.T) {
	clk := clock.NewManual()
	var p *plane.Plane
	burn := func(target float64) alert.Burn {
		return alert.Burn{Target: target, FastNs: 2e9, SlowNs: 3e9, Rate: 2}
	}
	p, err := plane.New(plane.Config{
		Metered: true,
		Clock:   clk,
		StepNs:  1e9,
		Retain:  8,
		Objectives: []alert.Objective{
			alert.ReadLatency("voting", 50e6, burn(0.99)),
			alert.WriteAvailability("voting", burn(0.9)),
		},
		Pull: func(context.Context) (obs.Snapshot, map[protocol.SiteID]error) {
			return p.Observer().Snapshot(), map[protocol.SiteID]error{2: errors.New("site is down")}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	o := p.Observer()
	for step := 1; step <= 3; step++ {
		for s := 0; s < 2; s++ {
			site := o.SchemeSite("voting", protocol.SiteID(s))
			for b := 0; b < 4; b++ {
				_, sp := site.StartOp(context.Background(), protocol.OpWrite, int64(b))
				clk.Advance(3 * time.Microsecond)
				if step == 2 {
					sp.Done(0, context.DeadlineExceeded)
				} else {
					sp.Done(2, nil)
				}
				_, sp = site.StartOp(context.Background(), protocol.OpRead, int64(b))
				clk.Advance(time.Microsecond)
				sp.Done(2, nil)
			}
		}
		clk.Advance(time.Duration(step)*time.Second - time.Duration(clk.Now().UnixNano()))
		p.Step()
	}
	h, err := p.DebugHandler()
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	var buf bytes.Buffer
	if err := run(&buf, srv.URL, time.Second, 5*time.Second, true); err != nil {
		t.Fatal(err)
	}
	// The header ends with the scrape's wall time.
	head, rest, _ := strings.Cut(buf.String(), "\n")
	got := []byte(head[:strings.LastIndex(head, "— ")] + "— <scrape time>\n" + rest)
	const path = "testdata/once.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("-once frame differs from %s (rerun with -update after reading the diff):\n--- got\n%s--- want\n%s", path, got, want)
	}
}
