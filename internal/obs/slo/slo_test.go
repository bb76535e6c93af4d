// Package slo_test holds the burn-rate-policy tests of
// internal/obs/alert — what the SLO engine's own tests checked before
// it and the health engine became one (the directory has no non-test
// code; it exists so those tests keep the names CI history knows them
// by).
package slo_test

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"relidev/internal/clock"
	"relidev/internal/obs"
	"relidev/internal/obs/alert"
	"relidev/internal/obs/tsdb"
)

// fakeCounts feeds an objective hand-set (bad, total) pairs per window,
// so the engine's latch logic is tested in isolation from the ring.
type fakeCounts struct {
	fast, slow, all [2]uint64 // bad, total
}

func (f *fakeCounts) objective(target, rate float64) alert.Objective {
	return alert.Objective{
		Name:     "fake",
		Severity: alert.Critical,
		Policy:   alert.Burn{Target: target, FastNs: 10, SlowNs: 20, Rate: rate},
		Signal: func(_ *tsdb.DB, windowNs int64) alert.Reading {
			c := f.all
			switch windowNs {
			case 10:
				c = f.fast
			case 20:
				c = f.slow
			}
			return alert.Reading{Bad: c[0], Total: c[1]}
		},
	}
}

func testEngine(t *testing.T, o alert.Objective, seal func(string)) (*alert.Engine, *clock.Manual) {
	t.Helper()
	clk := clock.NewManual()
	return alert.NewEngine(nil, clk, seal, o), clk
}

// TestMultiWindowFireAndClear: the alert needs BOTH windows above the
// threshold to fire, keeps its fire timestamp while it stays up, and
// clears — with a timestamp — as soon as either window recovers.
func TestMultiWindowFireAndClear(t *testing.T) {
	f := &fakeCounts{}
	// Target 0.5 → budget 0.5; a bad fraction of 1.0 burns at 2.0x.
	e, clk := testEngine(t, f.objective(0.5, 2), nil)
	// One tick per evaluation, so evaluation k reads time k.
	evaluate := func() alert.Report {
		clk.Advance(1)
		return e.Evaluate()
	}

	// Only the fast window burning: a blip, no alert.
	f.fast = [2]uint64{10, 10}
	f.slow = [2]uint64{0, 10}
	f.all = [2]uint64{10, 100}
	if rep := evaluate(); rep.Objectives[0].Firing || rep.Firing != 0 {
		t.Fatalf("fast-only burn fired: %+v", rep.Objectives[0])
	}
	// Only the slow window burning: an old wound, no alert.
	f.fast, f.slow = [2]uint64{0, 10}, [2]uint64{10, 10}
	if rep := evaluate(); rep.Objectives[0].Firing {
		t.Fatalf("slow-only burn fired: %+v", rep.Objectives[0])
	}
	// Both windows burning: fire, stamped with this evaluation's time —
	// a warning while budget is left.
	f.fast, f.slow = [2]uint64{10, 10}, [2]uint64{10, 10}
	rep := evaluate()
	st := rep.Objectives[0]
	if !st.Firing || st.FiredAtNs != 3 || rep.Firing != 1 || rep.Overall != alert.Warn || st.Latched {
		t.Fatalf("both-window burn: %+v overall %v", st, rep.Overall)
	}
	// Still burning: the fire time holds.
	if st = evaluate().Objectives[0]; !st.Firing || st.FiredAtNs != 3 {
		t.Fatalf("lost the fire timestamp: %+v", st)
	}
	// Fast window recovers: clear, with a cleared timestamp after fire.
	f.fast = [2]uint64{0, 10}
	st = evaluate().Objectives[0]
	if st.Firing || st.ClearedAtNs != 5 || st.FiredAtNs != 3 || st.Severity != alert.OK {
		t.Fatalf("recovery did not clear: %+v", st)
	}
	// Re-fire gets a fresh timestamp.
	f.fast = [2]uint64{10, 10}
	if st = evaluate().Objectives[0]; !st.Firing || st.FiredAtNs != 6 {
		t.Fatalf("re-fire kept stale timestamp: %+v", st)
	}
}

// TestNoTrafficBurnsNothing: empty windows are silence, not failure.
func TestNoTrafficBurnsNothing(t *testing.T) {
	f := &fakeCounts{}
	e, _ := testEngine(t, f.objective(0.999, 2), nil)
	rep := e.Evaluate()
	st := rep.Objectives[0]
	if st.Burn.FastBurn != 0 || st.Burn.SlowBurn != 0 || st.Firing || st.Value != 0 {
		t.Fatalf("no-traffic evaluation burned budget: %+v", st)
	}
	if rep.Overall != alert.OK {
		t.Fatalf("no-traffic overall = %v, want ok", rep.Overall)
	}
}

// TestExhaustionLatchesAndSealsOnce: spending the whole retention's
// budget latches, escalates to critical, and seals the flight recorder
// exactly once no matter how often Evaluate runs.
func TestExhaustionLatchesAndSealsOnce(t *testing.T) {
	f := &fakeCounts{}
	var seals []string
	e, _ := testEngine(t, f.objective(0.9, 2), func(trigger string) { seals = append(seals, trigger) })
	// 20% bad over retention against a 10% budget: twice overspent.
	f.all = [2]uint64{20, 100}
	for i := 0; i < 3; i++ {
		rep := e.Evaluate()
		st := rep.Objectives[0]
		if !st.Latched || st.Value < 1 || st.Severity != alert.Critical || rep.Overall != alert.Critical {
			t.Fatalf("eval %d not exhausted/critical: %+v", i, st)
		}
	}
	if len(seals) != 1 || !strings.Contains(seals[0], "slo fake error budget exhausted") {
		t.Fatalf("seals = %v, want exactly one exhaustion seal", seals)
	}
	// Exhaustion stays latched even after the retention drains.
	f.all = [2]uint64{0, 100}
	if st := e.Evaluate().Objectives[0]; !st.Latched {
		t.Fatal("exhaustion unlatched when the window drained")
	}
}

// TestPerfectTargetBurnsInfinitely: a 100% target has no budget — any
// bad event is an enormous burn, not a division by zero.
func TestPerfectTargetBurnsInfinitely(t *testing.T) {
	f := &fakeCounts{fast: [2]uint64{1, 1000}, slow: [2]uint64{1, 1000}}
	e, _ := testEngine(t, f.objective(1.0, 2), nil)
	if st := e.Evaluate().Objectives[0]; !st.Firing || st.Burn.FastBurn < 1e3 {
		t.Fatalf("one bad event against a perfect target: %+v", st)
	}
}

// TestDefaultsAndNames: zero windows and rate pick the 5m/1h/2x
// defaults; the report keeps declaration order, and its burn view
// leaves a threshold objective out.
func TestDefaultsAndNames(t *testing.T) {
	quiet := func(*tsdb.DB, int64) alert.Reading { return alert.Reading{} }
	e := alert.NewEngine(nil, clock.NewManual(), nil,
		alert.Objective{Name: "a", Policy: alert.Burn{Target: 0.9}, Signal: quiet},
		alert.Objective{Name: "t", Policy: alert.Threshold{}, Signal: quiet},
		alert.Objective{Name: "b", Policy: alert.Burn{Target: 0.9}, Signal: quiet},
	)
	st := e.Evaluate().Objectives[0]
	if st.Burn.FastWindowNs != alert.DefaultFastNs || st.Burn.SlowWindowNs != alert.DefaultSlowNs || st.Burn.BurnAlert != alert.DefaultBurn {
		t.Fatalf("defaults not applied: %+v", st.Burn)
	}
	if got := e.Evaluate().Objectives; len(got) != 3 || got[0].Name != "a" || got[1].Name != "t" || got[2].Name != "b" {
		t.Fatalf("evaluation order = %+v", got)
	}
	if got := e.Evaluate().View(alert.PolicyBurn).Objectives; len(got) != 2 || got[0].Name != "a" || got[1].Name != "b" {
		t.Fatalf("burn view = %+v", got)
	}
}

// TestWriteAvailabilityOverRing drives the shipped constructor against
// a real ring: failures beyond the budget push both windows over the
// threshold and the alert fires; a recovered fast window clears it.
func TestWriteAvailabilityOverRing(t *testing.T) {
	clk := clock.NewManual()
	var snap obs.Snapshot
	db := tsdb.New(tsdb.Config{
		Clock:  clk,
		Source: func() obs.Snapshot { return snap },
		StepNs: 1,
		Retain: 64,
	})
	set := func(attempts, failures uint64) {
		snap = obs.Snapshot{Counters: []obs.CounterPoint{
			{Name: obs.MetricOpAttempts, Labels: map[string]string{"scheme": "voting", "op": "write"}, Value: attempts},
			{Name: obs.MetricOpFailures, Labels: map[string]string{"scheme": "voting", "op": "write"}, Value: failures},
			{Name: obs.MetricOpFailures, Labels: map[string]string{"scheme": "voting", "op": "read"}, Value: 9 * failures},
		}}
		clk.Advance(1)
		db.Sample()
	}
	e := alert.NewEngine(db, clk, nil,
		alert.WriteAvailability("voting", alert.Burn{Target: 0.8, FastNs: 4, SlowNs: 16, Rate: 2}))

	// Healthy traffic fills both windows.
	var a, f uint64
	for i := 0; i < 16; i++ {
		a += 10
		set(a, f)
	}
	if st := e.Evaluate().Objectives[0]; st.Firing {
		t.Fatalf("healthy traffic fired: %+v", st)
	}
	// Total outage: every attempt fails, burn 1/0.2 = 5x in both windows
	// (failed reads are not this objective's).
	for i := 0; i < 16; i++ {
		a += 10
		f += 10
		set(a, f)
	}
	st := e.Evaluate().Objectives[0]
	if near := func(x float64) bool { return x > 4.99 && x < 5.01 }; !st.Firing || !near(st.Burn.FastBurn) || !near(st.Burn.SlowBurn) {
		t.Fatalf("outage did not fire at 5x: %+v %+v", st, st.Burn)
	}
	// Recovery drains the fast window first; the alert clears while the
	// slow window still remembers the outage.
	for i := 0; i < 8; i++ {
		a += 10
		set(a, f)
	}
	st = e.Evaluate().Objectives[0]
	if st.Firing || st.Burn.SlowBurn < 2 {
		t.Fatalf("recovery state: %+v (want cleared with slow window still burning)", st)
	}
}

// TestHandlerStatusCodes: /slo is 200 while budgets hold — a firing
// burn alert included — 503 once one is exhausted, 404 with no view.
func TestHandlerStatusCodes(t *testing.T) {
	f := &fakeCounts{fast: [2]uint64{10, 10}, slow: [2]uint64{10, 10}}
	e, _ := testEngine(t, f.objective(0.9, 2), nil)
	srv := httptest.NewServer(alert.Handler(func() (alert.Report, error) { return e.Evaluate().View(alert.PolicyBurn), nil }))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	var rep alert.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || len(rep.Objectives) != 1 || rep.Firing != 1 {
		t.Fatalf("firing /slo with budget left: status %d, %+v", resp.StatusCode, rep)
	}
	f.all = [2]uint64{50, 100}
	if resp, err = srv.Client().Get(srv.URL); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("exhausted /slo: status %d, want 503", resp.StatusCode)
	}
	none := httptest.NewServer(alert.Handler(func() (alert.Report, error) { return alert.Report{}, errors.New("no objectives") }))
	defer none.Close()
	if resp, err = none.Client().Get(none.URL); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("disabled /slo: status %d, want 404", resp.StatusCode)
	}
}
