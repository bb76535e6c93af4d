package plane

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"relidev/internal/clock"
	"relidev/internal/obs"
	"relidev/internal/obs/alert"
	"relidev/internal/obs/flight"
	"relidev/internal/protocol"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// golden compares got with testdata/<name>, or rewrites it under -update.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
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
		t.Errorf("%s differs from its golden (rerun with -update after reading the diff):\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}

func indented(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// get serves one GET on the plane's debug surface.
func get(t *testing.T, h http.Handler, path string) (int, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.Bytes()
}

// scriptConfig is a three-site voting host with every part attached:
// the default alert conditions at a one-second step, burn windows of
// three and eight steps.
func scriptConfig(clk clock.Clock) Config {
	burn := func(target float64) alert.Burn {
		return alert.Burn{Target: target, FastNs: 3e9, SlowNs: 8e9, Rate: 2}
	}
	return Config{
		Metered:  true,
		Clock:    clk,
		TraceCap: 24,
		Flight:   true,
		Probes:   []flight.Source{{Name: "suspects", Collect: func() any { return "{site2}" }}},
		Objectives: []alert.Objective{
			alert.QuorumMargin("voting", 2),
			alert.ErrorRate(0.1),
			alert.BatcherOccupancy(64),
			alert.ReadLatency("voting", 50e6, burn(0.99)),
			alert.WriteAvailability("voting", burn(0.9)),
		},
		StepNs: 1e9,
		Retain: 64,
		Pull:   func(context.Context) (obs.Snapshot, map[protocol.SiteID]error) { return obs.Snapshot{}, nil },
	}
}

// script drives twelve one-second steps of traffic through p: four
// writes and four reads a step (2µs each on the manual clock), the
// writes of steps 5-7 failing, writes from step 9 on reaching only a
// bare quorum. each, when set, runs after every Step with the
// step number and what Step returned.
func script(t *testing.T, p *Plane, clk *clock.Manual, each func(step int, rep *alert.Report)) {
	t.Helper()
	o := p.Observer()
	site := o.SchemeSite("voting", 0)
	op := func(kind string, blk, participants int, err error) {
		_, sp := site.StartOp(context.Background(), kind, int64(blk))
		clk.Advance(2 * time.Microsecond)
		sp.Done(participants, err)
	}
	for step := 1; step <= 12; step++ {
		for b := 0; b < 4; b++ {
			switch {
			case step >= 5 && step <= 7:
				op(protocol.OpWrite, b, 0, context.DeadlineExceeded)
			case step >= 9:
				op(protocol.OpWrite, b, 2, nil)
			default:
				op(protocol.OpWrite, b, 3, nil)
			}
			op(protocol.OpRead, b, 3, nil)
		}
		clk.Advance(time.Duration(step)*time.Second - time.Duration(clk.Now().UnixNano()))
		if rep := p.Step(); each != nil {
			each(step, rep)
		}
	}
}

// TestEndpointGoldens byte-pins what the alert and dump endpoints serve
// for the scripted run: Step's verdicts in the middle of the failing
// burst, then every endpoint after the last step.
func TestEndpointGoldens(t *testing.T) {
	clk := clock.NewManual()
	p, err := New(scriptConfig(clk))
	if err != nil {
		t.Fatal(err)
	}
	script(t, p, clk, func(step int, rep *alert.Report) {
		if step == 6 {
			golden(t, "step6_health.json", indented(t, rep.View(alert.PolicyThreshold)))
			golden(t, "step6_slo.json", indented(t, rep.View(alert.PolicyBurn)))
		}
	})
	h, err := p.DebugHandler()
	if err != nil {
		t.Fatal(err)
	}
	for _, ep := range []struct {
		path, file string
		status     int
	}{
		{"/healthz", "healthz.json", 200},
		{"/slo", "slo.json", 503}, // the write-availability budget is spent
		{"/timeseries", "timeseries.json", 200},
		{"/profile", "profile.json", 200},
		{"/debug/flight/sealed", "flight_sealed.json", 200},
		{"/debug/flight", "flight.json", 200},
	} {
		status, body := get(t, h, ep.path)
		if status != ep.status {
			t.Errorf("GET %s = %d, want %d", ep.path, status, ep.status)
		}
		golden(t, ep.file, body)
	}
}

// TestSealKeepsFirstTrigger: the retained dump is the first trigger's;
// later triggers, a fresh on-demand dump included, leave it alone.
func TestSealKeepsFirstTrigger(t *testing.T) {
	clk := clock.NewManual()
	p, err := New(scriptConfig(clk))
	if err != nil {
		t.Fatal(err)
	}
	if p.Sealed() != nil {
		t.Fatal("sealed before any trigger")
	}
	p.Step()
	p.Seal("first")
	p.Step()
	p.Seal("second")
	h, _ := p.DebugHandler()
	if status, _ := get(t, h, "/debug/flight"); status != 200 {
		t.Fatalf("/debug/flight = %d", status)
	}
	if d := p.Sealed(); d == nil || d.Trigger != "first" {
		t.Fatalf("sealed = %+v, want the first trigger's dump", d)
	}
}

// TestStepSealsWithItsOwnFrame: a Step whose evaluation goes critical
// seals a dump that already holds that step's sample of the registry —
// sampling comes before evaluation.
func TestStepSealsWithItsOwnFrame(t *testing.T) {
	clk := clock.NewManual()
	p, err := New(scriptConfig(clk))
	if err != nil {
		t.Fatal(err)
	}
	script(t, p, clk, func(step int, rep *alert.Report) {
		sealed := p.Sealed()
		switch {
		case step < 5 && sealed != nil:
			t.Fatalf("step %d: sealed %q before the burst", step, sealed.Trigger)
		case step == 5:
			if rep.Overall != alert.Critical || sealed == nil || !strings.HasPrefix(sealed.Trigger, "health: error_rate") {
				t.Fatalf("step 5: verdict %v, sealed %+v", rep.Overall, sealed)
			}
			if sealed.SealedAtNs != 5e9 || sealed.Timeseries.ToNs != 5e9 || sealed.Steps != 5 {
				t.Fatalf("dump sealed at %d holds %d steps up to %d, want step 5's sample in it",
					sealed.SealedAtNs, sealed.Steps, sealed.Timeseries.ToNs)
			}
		}
	})
}

// TestOneSnapshotPerStep counts full registry reads per Step.
func TestOneSnapshotPerStep(t *testing.T) {
	clk := clock.NewManual()
	p, err := New(scriptConfig(clk))
	if err != nil {
		t.Fatal(err)
	}
	reg := p.Observer().Registry()
	p.Step()
	before := reg.Snapshots()
	p.Step()
	if got := reg.Snapshots() - before; got != 1 {
		t.Fatalf("one Step read the registry %d times, want 1", got)
	}
}

// TestNilPlaneRefuses: the unmetered host's plane is nil, and every
// method on it is a typed refusal or a no-op.
func TestNilPlaneRefuses(t *testing.T) {
	p, err := New(Config{})
	if err != nil || p != nil {
		t.Fatalf("New(unmetered) = %v, %v; want nil, nil", p, err)
	}
	if p.Observer() != nil || p.Sealed() != nil {
		t.Error("nil plane has parts")
	}
	p.Seal("x")
	if rep := p.Step(); rep != nil {
		t.Error("nil plane stepped")
	}
	if _, err := p.View(alert.PolicyThreshold); !errors.Is(err, ErrNotMetered) {
		t.Errorf("View: %v", err)
	}
	if _, err := p.CriticalPath(); !errors.Is(err, ErrNotMetered) {
		t.Errorf("CriticalPath: %v", err)
	}
	if _, err := p.ClusterMetricsJSON(context.Background()); !errors.Is(err, ErrNotMetered) {
		t.Errorf("ClusterMetricsJSON: %v", err)
	}
	if _, err := p.DebugHandler(); !errors.Is(err, ErrNotMetered) {
		t.Errorf("DebugHandler: %v", err)
	}
}

// TestPartialPlaneRefuses: a metered plane without a part answers that
// part's accessor with its own refusal and its route with 404.
func TestPartialPlaneRefuses(t *testing.T) {
	p, err := New(Config{Metered: true, Clock: clock.NewManual()})
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []string{alert.PolicyThreshold, alert.PolicyBurn} {
		if _, err := p.View(policy); !errors.Is(err, ErrNoObjectives) {
			t.Errorf("View(%s): %v", policy, err)
		}
	}
	if rep := p.Step(); rep != nil {
		t.Error("a plane with nothing to sample stepped")
	}
	p.Seal("ignored")
	if p.Sealed() != nil {
		t.Error("sealed without a recorder")
	}
	h, _ := p.DebugHandler()
	for _, path := range []string{"/healthz", "/slo", "/timeseries", "/debug/flight", "/debug/flight/sealed", "/trace"} {
		if status, _ := get(t, h, path); status != 404 {
			t.Errorf("GET %s = %d, want 404", path, status)
		}
	}
	if status, _ := get(t, h, "/profile"); status != 200 {
		t.Errorf("GET /profile = %d", status)
	}
}

// TestNewDependencyErrors: New refuses a part without what it reads.
func TestNewDependencyErrors(t *testing.T) {
	full := scriptConfig(clock.NewManual())
	for name, cfg := range map[string]Config{
		"negative step":               {Metered: true, StepNs: -1},
		"objectives without metering": {Objectives: full.Objectives},
		"step without metering":       {StepNs: 1},
	} {
		if p, err := New(cfg); err == nil || p != nil {
			t.Errorf("%s: New = %v, %v; want an error", name, p, err)
		}
	}
}

// BenchmarkPlaneStep prices one step of a host with every part
// attached and a ring as long as a chaos run's: eight operations, then
// sample + evaluate. BENCH_history.json has it before and after the
// engines merged.
func BenchmarkPlaneStep(b *testing.B) {
	clk := clock.NewManual()
	cfg := scriptConfig(clk)
	cfg.TraceCap, cfg.Retain = 4096, 4096
	p, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sites := make([]*obs.SchemeObs, 5)
	for i := range sites {
		sites[i] = p.Observer().SchemeSite("voting", protocol.SiteID(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 8; j++ {
			kind := protocol.OpWrite
			if j%2 == 1 {
				kind = protocol.OpRead
			}
			_, sp := sites[j%5].StartOp(context.Background(), kind, int64(j))
			clk.Advance(2 * time.Microsecond)
			sp.Done(3, nil)
		}
		clk.Advance(time.Second)
		p.Step()
	}
}
