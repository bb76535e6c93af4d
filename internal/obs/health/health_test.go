// Package health_test holds the threshold-policy tests of
// internal/obs/alert — what the health engine's own tests checked
// before it and the SLO engine became one (the directory has no
// non-test code; it exists so those tests keep the names CI history
// knows them by).
package health_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"relidev/internal/clock"
	"relidev/internal/obs"
	"relidev/internal/obs/alert"
	"relidev/internal/obs/tsdb"
	"relidev/internal/protocol"
)

// flag fires whenever *on is true — the minimal signal for driving the
// hysteresis latch by hand.
func flag(name string, sev alert.Severity, forNs, clearNs int64, on *bool) alert.Objective {
	return alert.Objective{Name: name, Severity: sev, Policy: alert.Threshold{ForNs: forNs, ClearNs: clearNs},
		Signal: func(*tsdb.DB, int64) alert.Reading {
			r := alert.Reading{Total: 1}
			if *on {
				r.Value = 1
			}
			return r
		}}
}

// rig is an engine over a ring that samples a real observer, one
// manual-clock tick per sample.
type rig struct {
	clk *clock.Manual
	o   *obs.Observer
	db  *tsdb.DB
	e   *alert.Engine
}

func newRig(seal func(string), objectives ...alert.Objective) *rig {
	clk := clock.NewManual()
	o := obs.New(obs.WithClock(clk))
	db := tsdb.New(tsdb.Config{Clock: clk, Source: o.Snapshot, Retain: 16})
	return &rig{clk: clk, o: o, db: db, e: alert.NewEngine(db, clk, seal, objectives...)}
}

// step samples and evaluates, as a plane's Step does, and returns the
// first objective's status.
func (r *rig) step() alert.Status {
	r.clk.Advance(1)
	r.db.Sample()
	return r.e.Evaluate().Objectives[0]
}

// ops synthesises the write traffic the shipped signals read.
func (r *rig) ops(scheme string, participants int, fail bool, n int) {
	s := r.o.SchemeSite(scheme, 0)
	for i := 0; i < n; i++ {
		_, sp := s.StartOp(context.Background(), protocol.OpWrite, int64(i))
		if fail {
			sp.Done(0, context.DeadlineExceeded)
		} else {
			sp.Done(participants, nil)
		}
	}
}

func TestSeverityStrings(t *testing.T) {
	cases := map[alert.Severity]string{alert.OK: "ok", alert.Warn: "warn", alert.Critical: "critical", alert.Severity(9): "unknown", alert.Severity(-1): "unknown"}
	for sev, want := range cases {
		if sev.String() != want {
			t.Errorf("%d.String() = %q, want %q", sev, sev.String(), want)
		}
	}
	b, err := json.Marshal(alert.Critical)
	if err != nil || string(b) != `"critical"` {
		t.Errorf("Marshal(Critical) = %s, %v", b, err)
	}
	var back alert.Severity
	if err := json.Unmarshal(b, &back); err != nil || back != alert.Critical {
		t.Errorf("round trip = %v, %v", back, err)
	}
	if err := json.Unmarshal([]byte(`"dire"`), &back); err == nil {
		t.Error("an unknown severity name parsed")
	}
}

// TestHysteresisActivation: an objective with ForNs latches only after
// the condition has held continuously that long; a flap in the middle
// resets the streak.
func TestHysteresisActivation(t *testing.T) {
	clk := clock.NewManual()
	on := false
	e := alert.NewEngine(nil, clk, nil, flag("r", alert.Critical, 100, 0, &on))
	eval := func() alert.Status { return e.Evaluate().Objectives[0] }

	if rep := e.Evaluate(); rep.Overall != alert.OK || rep.Objectives[0].Latched {
		t.Fatalf("clear objective latched: %+v", rep.Objectives[0])
	}
	// Fires at t=10; streak too short until t=110.
	on = true
	clk.Advance(10)
	if eval().Latched {
		t.Fatal("latched with zero streak")
	}
	clk.Advance(50)
	if eval().Latched {
		t.Fatal("latched before ForNs elapsed")
	}
	// Flap: one clear evaluation resets the streak start.
	on = false
	clk.Advance(20)
	eval()
	on = true
	clk.Advance(10)
	eval()
	clk.Advance(80) // only 80ns into the new streak
	if eval().Latched {
		t.Fatal("flap did not reset the hysteresis streak")
	}
	clk.Advance(25) // 105ns into the new streak
	rep := e.Evaluate()
	if st := rep.Objectives[0]; !st.Latched || st.Severity != alert.Critical || rep.Overall != alert.Critical || st.FiredAtNs != 90 {
		t.Fatalf("objective did not latch after ForNs: %+v", st)
	}
}

// TestHysteresisClear: a latched alert stays latched until the clear
// streak outlasts ClearNs.
func TestHysteresisClear(t *testing.T) {
	clk := clock.NewManual()
	on := true
	e := alert.NewEngine(nil, clk, nil, flag("r", alert.Warn, 0, 50, &on))
	eval := func() alert.Status { return e.Evaluate().Objectives[0] }

	if !eval().Latched {
		t.Fatal("ForNs=0 objective did not latch immediately")
	}
	on = false
	clk.Advance(10)
	if !eval().Latched {
		t.Fatal("alert dropped before ClearNs elapsed")
	}
	clk.Advance(30)
	if !eval().Latched {
		t.Fatal("alert dropped mid clear-streak")
	}
	clk.Advance(25)
	rep := e.Evaluate()
	if st := rep.Objectives[0]; st.Latched || st.Severity != alert.OK || rep.Overall != alert.OK || st.ClearedAtNs != 10 {
		t.Fatalf("cleared status = %+v, want released and OK", st)
	}
}

// TestOverallIsMaxOverActive: the fold takes the maximum severity over
// latched objectives only.
func TestOverallIsMaxOverActive(t *testing.T) {
	clk := clock.NewManual()
	warnOn, critOn := true, false
	e := alert.NewEngine(nil, clk, nil, flag("w", alert.Warn, 0, 0, &warnOn), flag("c", alert.Critical, 0, 0, &critOn))
	if rep := e.Evaluate(); rep.Overall != alert.Warn || rep.Firing != 1 {
		t.Fatalf("overall = %v, want warn (the critical objective is clear)", rep.Overall)
	}
	critOn = true
	clk.Advance(1)
	if rep := e.Evaluate(); rep.Overall != alert.Critical || rep.Firing != 2 {
		t.Fatalf("overall = %v, want critical", rep.Overall)
	}
}

// TestFirstEvaluationWindow: a counter ratio has no window in a ring
// that holds one sample — that sample's deltas count from process
// start — and from the second sample on it is the newest sample's
// events alone, whatever came before.
func TestFirstEvaluationWindow(t *testing.T) {
	r := newRig(nil, alert.ErrorRate(0.5))
	r.ops("voting", 0, true, 5)
	if st := r.step(); st.Firing || st.Value != 0 || !strings.Contains(st.Detail, "nothing to measure") {
		t.Fatalf("first sample, all failures: %+v, want no verdict yet", st)
	}
	r.ops("voting", 3, false, 4)
	if st := r.step(); st.Firing || st.Value != 0 || !strings.Contains(st.Detail, "0/4") {
		t.Fatalf("second sample: %+v, want 0 of this sample's 4 attempts", st)
	}
}

// TestHandlerStatusCodes: 200 below critical, 503 at critical, 404 for
// a view that cannot be had; the body is the JSON report either way.
func TestHandlerStatusCodes(t *testing.T) {
	clk := clock.NewManual()
	on := false
	e := alert.NewEngine(nil, clk, nil, flag("r", alert.Critical, 0, 0, &on))
	h := alert.Handler(func() (alert.Report, error) { return e.Evaluate().View(alert.PolicyThreshold), nil })

	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("healthy status = %d, want 200", rec.Code)
	}
	on = true
	clk.Advance(1)
	rec = httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 {
		t.Fatalf("critical status = %d, want 503", rec.Code)
	}
	var rep alert.Report
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("report JSON: %v", err)
	}
	if rep.Overall != alert.Critical || len(rep.Objectives) != 1 || rep.Objectives[0].Policy != alert.PolicyThreshold {
		t.Errorf("served report = %+v", rep)
	}
	rec = httptest.NewRecorder()
	alert.Handler(func() (alert.Report, error) { return alert.Report{}, errors.New("no objectives") })(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 404 {
		t.Errorf("refused view status = %d, want 404", rec.Code)
	}
}

// TestConcurrentEvaluate: Evaluate is safe under concurrency with the
// sampler and with itself (run with -race in CI).
func TestConcurrentEvaluate(t *testing.T) {
	on := true
	r := newRig(func(string) {}, flag("r", alert.Critical, 5, 5, &on), alert.ErrorRate(0.5),
		alert.WriteAvailability("voting", alert.Burn{Target: 0.9, FastNs: 4, SlowNs: 8}))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r.ops("voting", 0, i%2 == 0, 1)
				r.clk.Advance(1)
				r.db.Sample()
				r.e.Evaluate()
			}
		}()
	}
	wg.Wait()
}

// --- the shipped threshold objectives over a real ring ---

func TestQuorumMarginRule(t *testing.T) {
	r := newRig(nil, alert.QuorumMargin("voting", 3))
	r.step() // a first sample to measure from
	r.ops("voting", 5, false, 4)
	r.ops("naive", 1, false, 4) // another scheme's traffic is not this objective's
	if st := r.step(); st.Firing || st.Value != 2 {
		t.Errorf("healthy margin = %+v, want clear at margin 5-3 = 2", st)
	}
	r.ops("voting", 3, false, 4) // one failure from blocking
	if st := r.step(); !st.Firing || st.Value != 0 || st.Severity != alert.Warn {
		t.Errorf("tight margin = %+v, want a warning at margin 0", st)
	}
	if st := r.step(); st.Firing {
		t.Errorf("a sample with no completions fired: %+v", st)
	}
}

func TestErrorRateRule(t *testing.T) {
	r := newRig(nil, alert.ErrorRate(0.5))
	if st := r.step(); st.Firing {
		t.Errorf("fired with no attempts: %+v", st)
	}
	r.ops("voting", 3, false, 3)
	r.ops("voting", 0, true, 1)
	if st := r.step(); st.Firing || st.Value != 0.25 {
		t.Errorf("25%% failures = %+v, want clear at 0.25", st)
	}
	r.ops("voting", 0, true, 3)
	if st := r.step(); !st.Firing || st.Value != 1 || st.Severity != alert.Critical {
		t.Errorf("total failure = %+v, want critical at 1", st)
	}
}

func TestBatcherOccupancyRule(t *testing.T) {
	r := newRig(nil, alert.BatcherOccupancy(8))
	g := r.o.Registry().Gauge(obs.MetricGroupCommitOccupancy, obs.L("site", "site1"))
	g.Set(7)
	if st := r.step(); st.Firing || st.Value != 7 {
		t.Errorf("below saturation = %+v", st)
	}
	g.Set(8)
	if st := r.step(); !st.Firing || st.Value != 8 || !strings.Contains(st.Detail, "site1") {
		t.Errorf("saturated = %+v, want firing at 8, naming site1", st)
	}
}
