package relidev_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"relidev"
	"relidev/internal/core"
	"relidev/internal/obs"
	"relidev/internal/obs/alert"
	"relidev/internal/obs/plane"
	"relidev/internal/protocol"
	"relidev/internal/scheme"
)

// get fetches one debug route and returns its status and body.
func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// serveDebug serves a site's debug surface until the test ends.
func serveDebug(t *testing.T, s *relidev.RemoteSite) *httptest.Server {
	t.Helper()
	h, err := s.DebugHandler()
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv
}

// openGroup opens an n-site group on loopback, each site from cfg with
// its own Self and the group's Peers, and closes it when the test ends.
func openGroup(t *testing.T, n int, cfg relidev.RemoteConfig) []*relidev.RemoteSite {
	t.Helper()
	cfg.Peers = make(map[int]string, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Peers[i] = l.Addr().String()
		l.Close()
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = time.Second
	}
	sites := make([]*relidev.RemoteSite, n)
	for i := range sites {
		cfg.Self = i
		s, err := relidev.OpenRemote(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sites[i] = s
		t.Cleanup(func() { s.Close() })
	}
	return sites
}

// loneVoter opens site 1 of a two-site voting group whose peer (site 0,
// which holds the §4.1 tie-breaking weight) never comes up: every read
// and write fails its quorum, quickly.
func loneVoter(t *testing.T, cfg relidev.RemoteConfig) (*relidev.RemoteSite, *httptest.Server) {
	t.Helper()
	cfg.Self, cfg.Peers = 1, map[int]string{0: "127.0.0.1:1", 1: "127.0.0.1:0"}
	cfg.Scheme, cfg.Geometry = relidev.Voting, relidev.Geometry{BlockSize: 64, NumBlocks: 8}
	cfg.Timeout, cfg.Metered = 200*time.Millisecond, true
	s, err := relidev.OpenRemote(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, serveDebug(t, s)
}

type flightDump struct {
	Trigger    string `json:"trigger"`
	Steps      int    `json:"steps"`
	Timeseries struct {
		Series []struct {
			Name   string            `json:"name"`
			Labels map[string]string `json:"labels"`
			Points []struct {
				Value float64 `json:"value"`
			} `json:"points"`
		} `json:"series"`
	} `json:"timeseries"`
	Probes []struct {
		Source string `json:"source"`
	} `json:"probes"`
}

// TestRemoteBlackBox is the regression test for the TCP black box: the
// poller samples the ring once per telemetry step, a critical objective
// seals a dump that holds the steps leading up to it — with nobody
// watching — and that dump stays retrievable over the debug surface
// after later on-demand /debug/flight GETs. Before the plane owned the
// wiring the sealed dump had no history and no endpoint returned it.
func TestRemoteBlackBox(t *testing.T) {
	ctx := context.Background()
	s, srv := loneVoter(t, relidev.RemoteConfig{TelemetryStep: 5 * time.Millisecond})
	if code, _ := get(t, srv, "/debug/flight/sealed"); code != http.StatusNotFound {
		t.Fatalf("/debug/flight/sealed before any trigger = %d, want 404", code)
	}
	time.Sleep(25 * time.Millisecond) // a few quiet steps first
	payload := make([]byte, 64)
	deadline := time.Now().Add(10 * time.Second)
	for sealed := false; !sealed; {
		if time.Now().After(deadline) {
			t.Fatal("failing writes never sealed the recorder")
		}
		if err := s.Device().WriteBlock(ctx, 1, payload); err == nil {
			t.Fatal("write succeeded without a quorum")
		}
		time.Sleep(5 * time.Millisecond)
		code, _ := get(t, srv, "/debug/flight/sealed")
		sealed = code == http.StatusOK
	}

	// A plain GET is an on-demand dump and must not displace the sealed one.
	if code, body := get(t, srv, "/debug/flight"); code != 200 || !strings.Contains(body, `"trigger": "http request"`) {
		t.Fatalf("/debug/flight = %d:\n%s", code, body)
	}
	code, body := get(t, srv, "/debug/flight/sealed")
	if code != 200 {
		t.Fatalf("/debug/flight/sealed after an on-demand GET = %d", code)
	}
	var d flightDump
	if err := json.Unmarshal([]byte(body), &d); err != nil {
		t.Fatal(err)
	}
	// Either critical objective may judge the failing writes first: the
	// error rate of the newest step, or the write budget, which a step
	// holding a write's failure but not its attempt reaches alone.
	if !strings.HasPrefix(d.Trigger, "health: error_rate (") && d.Trigger != "slo write_availability_voting error budget exhausted" {
		t.Fatalf("sealed trigger = %q, want a critical objective", d.Trigger)
	}
	if d.Steps < 2 {
		t.Fatalf("sealed dump holds %d steps, want the poller's history (>= 2)", d.Steps)
	}
	if len(d.Probes) != 1 || d.Probes[0].Source != "suspects" {
		t.Errorf("sealed probes = %+v, want the suspect set", d.Probes)
	}
	failing := 0.0
	for _, ser := range d.Timeseries.Series {
		if ser.Name == "relidev_op_failures_total" && ser.Labels["op"] == "write" {
			for _, p := range ser.Points {
				failing += p.Value
			}
		}
	}
	if failing == 0 {
		t.Fatalf("the dump's timeseries does not show the failing writes:\n%s", body)
	}
}

// failReads reads from a lone voter until the test ends: every read
// fails its quorum, so every step holds failed attempts. Reads, unlike
// writes, spend no objective's budget, so the error rate alone judges
// them.
func failReads(t *testing.T, s *relidev.RemoteSite) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	t.Cleanup(func() { cancel(); <-done })
	go func() {
		defer close(done)
		for ctx.Err() == nil {
			if _, err := s.Device().ReadBlock(ctx, 1); err == nil {
				t.Error("read succeeded without a quorum")
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
}

// TestRemoteCriticalHealthSeals: whichever way a prober asks — Health()
// here, /healthz below — a critical verdict means the recorder is
// sealed by it: the evaluation that latched it, the poller's or the
// prober's own, seals once it has let go of the engine, so the seal
// may land just after a concurrent prober saw the verdict.
func TestRemoteCriticalHealthSeals(t *testing.T) {
	for _, probe := range []string{"Health()", "/healthz"} {
		t.Run(probe, func(t *testing.T) {
			s, srv := loneVoter(t, relidev.RemoteConfig{TelemetryStep: 5 * time.Millisecond})
			critical := func() bool {
				if probe == "/healthz" {
					code, _ := get(t, srv, "/healthz")
					return code == http.StatusServiceUnavailable
				}
				v, err := s.Health()
				if err != nil {
					t.Fatal(err)
				}
				return v.Overall >= relidev.SeverityCritical
			}
			if critical() {
				t.Fatal("critical before any operation")
			}
			failReads(t, s)
			for deadline := time.Now().Add(10 * time.Second); !critical(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("failing reads never turned the verdict critical")
				}
			}
			code, body := get(t, srv, "/debug/flight/sealed")
			for deadline := time.Now().Add(time.Second); code == http.StatusNotFound && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
				code, body = get(t, srv, "/debug/flight/sealed")
			}
			if code != 200 || !strings.Contains(body, `"trigger": "health: error_rate (`) {
				t.Fatalf("/debug/flight/sealed = %d, want the health seal:\n%s", code, body)
			}
		})
	}
}

// TestRemotePollerSealsUnattended: the poller evaluates every objective
// each step, so a critical threshold condition seals the black box with
// nobody asking for a verdict. (The poller used to evaluate only the
// SLOs: an error-rate breach sealed nothing until somebody happened to
// GET /healthz.)
func TestRemotePollerSealsUnattended(t *testing.T) {
	s, srv := loneVoter(t, relidev.RemoteConfig{TelemetryStep: 5 * time.Millisecond})
	time.Sleep(25 * time.Millisecond) // a few quiet steps: error_rate needs a previous sample
	failReads(t, s)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		// Reading the retained dump evaluates nothing.
		code, body := get(t, srv, "/debug/flight/sealed")
		if code == http.StatusOK {
			if !strings.Contains(body, `"trigger": "health: error_rate (`) {
				t.Fatalf("sealed by something other than the error rate:\n%.300s", body)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the poller never sealed the recorder")
		}
	}
}

// verdicts reduces a /healthz body to what a prober acts on.
func verdicts(t *testing.T, body string) string {
	t.Helper()
	var rep relidev.AlertReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("%v:\n%s", err, body)
	}
	out := rep.Overall.String()
	for _, o := range rep.Objectives {
		out += fmt.Sprintf(" %s:%t/%t/%g", o.Name, o.Firing, o.Latched, o.Value)
	}
	return out
}

// TestInterleavedProbersSeeOneVerdict: on a host whose ring is sampled
// on a cadence, a GET /healthz reads the ring and samples nothing, so a
// balancer and an operator probing between the same two samples get the
// verdict a single prober would. (Each probe used to move one shared
// "since the previous probe" window: the second of two probers judged
// only the operations since the first one's GET.)
func TestInterleavedProbersSeeOneVerdict(t *testing.T) {
	ctx := context.Background()
	// A host stepped by hand: its cadence is a promise nobody keeps but
	// the test.
	type host struct {
		c   *core.Cluster
		p   *plane.Plane
		srv *httptest.Server
	}
	newHost := func() host {
		p, err := plane.New(plane.Config{Metered: true, StepNs: time.Hour.Nanoseconds(),
			Objectives: relidev.DefaultObjectives(relidev.Voting, 3)})
		if err != nil {
			t.Fatal(err)
		}
		c, err := core.NewCluster(core.ClusterConfig{Sites: 3, Scheme: core.Voting,
			Geometry: relidev.Geometry{BlockSize: 64, NumBlocks: 8}, Observer: p.Observer()})
		if err != nil {
			t.Fatal(err)
		}
		h, err := p.DebugHandler()
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		return host{c, p, srv}
	}
	// step runs four writes at site 0 — failing once its peers are down
	// — and takes the step.
	step := func(h host, wantErr bool) {
		dev, err := h.c.Device(0)
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < 4; b++ {
			if err := dev.WriteBlock(ctx, relidev.Index(b), make([]byte, 64)); (err != nil) != wantErr {
				t.Fatalf("write: %v", err)
			}
		}
		h.p.Step()
	}
	outage := func(h host) {
		for _, site := range []protocol.SiteID{1, 2} {
			if err := h.c.Fail(site); err != nil {
				t.Fatal(err)
			}
		}
	}

	alone := newHost()
	step(alone, false)
	outage(alone)
	step(alone, true)
	wantCode, wantBody := get(t, alone.srv, "/healthz")
	if wantCode != http.StatusServiceUnavailable {
		t.Fatalf("a sample of failing writes is not critical: %d\n%s", wantCode, wantBody)
	}

	shared := newHost()
	step(shared, false)
	if code, _ := get(t, shared.srv, "/healthz"); code != 200 { // the balancer, before the outage
		t.Fatalf("healthy /healthz = %d", code)
	}
	outage(shared)
	step(shared, true)
	for _, prober := range []string{"balancer", "operator", "balancer again"} {
		code, body := get(t, shared.srv, "/healthz")
		if code != wantCode || verdicts(t, body) != verdicts(t, wantBody) {
			t.Errorf("%s got %d %s\nwant what a lone prober gets: %d %s",
				prober, code, verdicts(t, body), wantCode, verdicts(t, wantBody))
		}
	}
}

// TestHostDebugSurfaceParity is the route table of the one host that
// serves: metered without a telemetry step and with one, a RemoteSite
// serves every route with the status code (and the kind of body) the
// plane's parts say.
func TestHostDebugSurfaceParity(t *testing.T) {
	// route -> what a 200 body must contain.
	routes := map[string]string{
		"/metrics": `"counters"`, "/metrics.prom": "", "/trace": `"events"`, "/trace/tree": `"traces"`, "/trace/cluster": `"traces"`,
		"/profile": `"ops"`, "/cluster/metrics": `"metrics"`, "/healthz": `"overall"`, "/timeseries": `"step_ns"`,
		"/slo": `"burn"`, "/debug/flight": `"trigger": "http request"`, "/debug/flight/sealed": "", "/nope": "",
	}
	for _, tc := range []struct {
		name string
		step time.Duration
	}{
		{name: "bare metering"},
		{name: "health+telemetry+slo", step: time.Hour},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := serveDebug(t, openLoneSite(t, relidev.RemoteConfig{Metered: true, TelemetryStep: tc.step}))
			for path, marker := range routes {
				want := 200
				switch path {
				case "/healthz", "/slo", "/timeseries", "/debug/flight":
					if tc.step == 0 {
						want = 404
					}
				case "/debug/flight/sealed", "/nope": // nothing has sealed; no such route
					want = 404
				}
				got, body := get(t, srv, path)
				if got != want {
					t.Errorf("%s = %d, want %d:\n%s", path, got, want, body)
				}
				if got == 200 && !strings.Contains(body, marker) {
					t.Errorf("%s body lacks %s:\n%s", path, marker, body)
				}
			}
		})
	}
	// An unmetered site has no surface at all.
	if _, err := openLoneSite(t, relidev.RemoteConfig{}).DebugHandler(); !errors.Is(err, relidev.ErrNotMetered) {
		t.Fatalf("unmetered RemoteSite.DebugHandler: %v", err)
	}
}

// TestEverySiteIsWiredByCore: every site is wired by the one core path
// at construction — its operations land in its own series and the
// requests it serves leave handle spans in its own name.
func TestEverySiteIsWiredByCore(t *testing.T) {
	ctx := context.Background()
	o := obs.New(obs.WithTracing(1024))
	c, err := core.NewCluster(core.ClusterConfig{Sites: 3, Scheme: core.AvailableCopy,
		Geometry: relidev.Geometry{BlockSize: 64, NumBlocks: 8}, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	// Coordinate from every site, so each has op series of its own and
	// serves its peers' puts.
	for i := range c.Sites() {
		dev, err := c.Device(protocol.SiteID(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := dev.WriteBlock(ctx, 3, make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}

	counted := make(map[string]bool)
	for _, p := range o.Snapshot().Counters {
		if p.Name == obs.MetricOpCompletions && p.Labels["op"] == "write" && p.Value > 0 {
			counted[p.Labels["site"]] = true
		}
	}
	handled := make(map[int]bool)
	var walk func(sp *obs.Span)
	walk = func(sp *obs.Span) {
		if sp.Kind == "handle" {
			handled[sp.Site] = true
		}
		for _, ch := range sp.Children {
			walk(ch)
		}
	}
	for _, tr := range o.TraceTrees() {
		if tr.Root != nil {
			walk(tr.Root)
		}
		for _, o := range tr.Orphans {
			walk(o)
		}
	}
	for i := range c.Sites() {
		id := protocol.SiteID(i)
		if !counted[id.String()] {
			t.Errorf("%v's write landed in no series of its own:\n%+v", id, o.Snapshot().Counters)
		}
		if !handled[i] {
			t.Errorf("no handle span recorded at %v", id)
		}
	}
}

// TestEvenGroupTieBreak: §4.1 nudges site 0's weight so a 4-site group
// split 2–2 still has one half with a majority. Both hosts must give
// the replica the weight their controllers count (OpenRemote once built
// site 0's replica at 1000 against the controllers' 1001, so over TCP
// neither half had a quorum).
func TestEvenGroupTieBreak(t *testing.T) {
	ctx := context.Background()
	geom := relidev.Geometry{BlockSize: 64, NumBlocks: 8}
	payload := make([]byte, geom.BlockSize)
	copy(payload, "tie")
	// check drives the two surviving sites' devices after `down` failed.
	check := func(t *testing.T, down [2]int, devs [2]relidev.Device) {
		t.Helper()
		for _, dev := range devs {
			err := dev.WriteBlock(ctx, 1, payload)
			if down[0] != 0 { // the half with site 0 survives
				if err != nil {
					t.Fatalf("write in the half holding site 0: %v", err)
				}
				if got, err := dev.ReadBlock(ctx, 1); err != nil || string(got[:3]) != "tie" {
					t.Fatalf("read in the half holding site 0: %q, %v", got, err)
				}
				continue
			}
			if !errors.Is(err, scheme.ErrNoQuorum) {
				t.Fatalf("write in the half without site 0: %v, want ErrNoQuorum", err)
			}
			if _, err := dev.ReadBlock(ctx, 1); !errors.Is(err, scheme.ErrNoQuorum) {
				t.Fatalf("read in the half without site 0: %v, want ErrNoQuorum", err)
			}
		}
	}
	for _, down := range [][2]int{{2, 3}, {0, 1}} {
		up := [2]int{down[0] ^ 2, down[1] ^ 2}
		t.Run(fmt.Sprintf("cluster/down%v", down), func(t *testing.T) {
			c, err := relidev.New(4, relidev.Voting, relidev.WithGeometry(geom))
			if err != nil {
				t.Fatal(err)
			}
			var devs [2]relidev.Device
			for i := range devs {
				if err := c.Fail(down[i]); err != nil {
					t.Fatal(err)
				}
				if devs[i], err = c.Device(up[i]); err != nil {
					t.Fatal(err)
				}
			}
			check(t, down, devs)
		})
		t.Run(fmt.Sprintf("tcp/down%v", down), func(t *testing.T) {
			// Learn four free loopback addresses, then open the group on them.
			addrs := make(map[int]string, 4)
			for i := 0; i < 4; i++ {
				s, err := relidev.OpenRemote(relidev.RemoteConfig{Self: i, Peers: map[int]string{i: "127.0.0.1:0"}, Scheme: relidev.Voting, Geometry: geom})
				if err != nil {
					t.Fatal(err)
				}
				addrs[i] = s.Addr()
				s.Close()
			}
			sites := make([]*relidev.RemoteSite, 4)
			for i := range sites {
				s, err := relidev.OpenRemote(relidev.RemoteConfig{Self: i, Peers: addrs, Scheme: relidev.Voting, Geometry: geom, Timeout: time.Second})
				if err != nil {
					t.Fatal(err)
				}
				sites[i] = s
				t.Cleanup(func() { s.Close() })
			}
			var devs [2]relidev.Device
			for i := range devs {
				if err := sites[down[i]].Close(); err != nil {
					t.Fatal(err)
				}
				devs[i] = sites[up[i]].Device()
			}
			check(t, down, devs)
		})
	}
}

// TestLazyRefreshRaisesNoObjective: a voting site that was down while a
// block was written rejoins at once (§5: no recovery messages) and, on
// its first read of that block, finds its copy stale and fetches the
// current one — Figure 3's lazy refresh, priced by §5.1 at one extra
// message. That is the scheme working. The conformance-drift objective,
// deleted from every default set, counted each such read as a stale
// read served and went critical on the first one.
func TestLazyRefreshRaisesNoObjective(t *testing.T) {
	ctx := context.Background()
	p, err := plane.New(plane.Config{Metered: true, StepNs: time.Hour.Nanoseconds(),
		Objectives: relidev.DefaultObjectives(relidev.Voting, 3)})
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.NewCluster(core.ClusterConfig{Sites: 3, Scheme: core.Voting,
		Geometry: relidev.Geometry{BlockSize: 64, NumBlocks: 8}, Observer: p.Observer()})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Fail(2); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 64)
	copy(payload, "written while site 2 was down")
	dev0, _ := c.Device(0)
	if err := dev0.WriteBlock(ctx, 5, payload); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart(ctx, 2); err != nil {
		t.Fatal(err)
	}
	// The degraded write is judged here (and warns, rightly: it had no
	// quorum margin); the refresh falls in the next step, alone.
	p.Step()
	dev2, _ := c.Device(2)
	got, err := dev2.ReadBlock(ctx, 5)
	if err != nil || string(got) != string(payload) {
		t.Fatalf("read at the rejoined site = %q, %v", got, err)
	}
	refreshed := false
	for _, pt := range p.Observer().Snapshot().Counters {
		refreshed = refreshed || pt.Name == obs.MetricStaleReads && pt.Value > 0
	}
	if !refreshed {
		t.Fatal("the read did not go through a lazy refresh; the test proves nothing")
	}
	p.Step()
	for _, view := range []string{alert.PolicyThreshold, alert.PolicyBurn} {
		rep, err := p.View(view)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Overall != relidev.SeverityOK || rep.Firing != 0 {
			t.Errorf("%s view after a lazy refresh: %+v", view, rep)
		}
		for _, o := range rep.Objectives {
			if strings.Contains(o.Name, "conformance_drift") {
				t.Errorf("%s view still lists %s", view, o.Name)
			}
		}
	}
}
