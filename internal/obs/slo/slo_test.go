package slo

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"relidev/internal/clock"
	"relidev/internal/obs"
	"relidev/internal/obs/tsdb"
)

// fakeSLO builds an objective whose Eval reads hand-set (bad, total)
// pairs per window, so the engine's latch logic is tested in isolation
// from the ring.
type fakeCounts struct {
	fast, slow, all [2]uint64 // bad, total
}

func (f *fakeCounts) slo(target, burn float64) SLO {
	return SLO{
		Name:   "fake",
		Target: target,
		FastNs: 10,
		SlowNs: 20,
		Burn:   burn,
		Eval: func(_ *tsdb.DB, windowNs int64) (uint64, uint64) {
			switch windowNs {
			case 10:
				return f.fast[0], f.fast[1]
			case 20:
				return f.slow[0], f.slow[1]
			}
			return f.all[0], f.all[1]
		},
	}
}

func testEngine(t *testing.T, s SLO, seal func(string)) (*Engine, *clock.Manual) {
	t.Helper()
	clk := clock.NewManual()
	return NewEngine(nil, clk, seal, s), clk
}

// TestMultiWindowFireAndClear: the alert needs BOTH windows above the
// threshold to fire, keeps its fire timestamp while it stays up, and
// clears — with a timestamp — as soon as either window recovers.
func TestMultiWindowFireAndClear(t *testing.T) {
	f := &fakeCounts{}
	// Target 0.5 → budget 0.5; a bad fraction of 1.0 burns at 2.0x.
	e, clk := testEngine(t, f.slo(0.5, 2), nil)
	// One tick per evaluation, so evaluation k reads time k.
	evaluate := func() Report {
		clk.Advance(1)
		return e.Evaluate()
	}

	// Only the fast window burning: a blip, no alert.
	f.fast = [2]uint64{10, 10}
	f.slow = [2]uint64{0, 10}
	f.all = [2]uint64{10, 100}
	if rep := evaluate(); rep.SLOs[0].Firing || rep.Firing != 0 {
		t.Fatalf("fast-only burn fired: %+v", rep.SLOs[0])
	}
	// Only the slow window burning: an old wound, no alert.
	f.fast, f.slow = [2]uint64{0, 10}, [2]uint64{10, 10}
	if rep := evaluate(); rep.SLOs[0].Firing {
		t.Fatalf("slow-only burn fired: %+v", rep.SLOs[0])
	}
	// Both windows burning: fire, stamped with this evaluation's time.
	f.fast, f.slow = [2]uint64{10, 10}, [2]uint64{10, 10}
	rep := evaluate()
	st := rep.SLOs[0]
	if !st.Firing || st.FiredAtNs != 3 || rep.Firing != 1 || rep.Overall != 1 {
		t.Fatalf("both-window burn: %+v overall %v", st, rep.Overall)
	}
	// Still burning: the latch holds the original fire time.
	if st = evaluate().SLOs[0]; !st.Firing || st.FiredAtNs != 3 {
		t.Fatalf("latch lost the fire timestamp: %+v", st)
	}
	// Fast window recovers: clear, with a cleared timestamp after fire.
	f.fast = [2]uint64{0, 10}
	st = evaluate().SLOs[0]
	if st.Firing || st.ClearedAtNs != 5 || st.FiredAtNs != 3 {
		t.Fatalf("recovery did not clear: %+v", st)
	}
	// Re-fire gets a fresh timestamp.
	f.fast = [2]uint64{10, 10}
	if st = evaluate().SLOs[0]; !st.Firing || st.FiredAtNs != 6 {
		t.Fatalf("re-fire kept stale timestamp: %+v", st)
	}
}

// TestNoTrafficBurnsNothing: empty windows are silence, not failure.
func TestNoTrafficBurnsNothing(t *testing.T) {
	f := &fakeCounts{}
	e, _ := testEngine(t, f.slo(0.999, 2), nil)
	rep := e.Evaluate()
	st := rep.SLOs[0]
	if st.FastBurn != 0 || st.SlowBurn != 0 || st.Firing || st.BudgetSpent != 0 {
		t.Fatalf("no-traffic evaluation burned budget: %+v", st)
	}
	if rep.Overall != 0 {
		t.Fatalf("no-traffic overall = %v, want ok", rep.Overall)
	}
}

// TestExhaustionLatchesAndSealsOnce: spending the whole retention's
// budget latches Exhausted, escalates to critical, and seals the
// flight recorder exactly once no matter how often Evaluate runs.
func TestExhaustionLatchesAndSealsOnce(t *testing.T) {
	f := &fakeCounts{}
	var seals []string
	e, _ := testEngine(t, f.slo(0.9, 2), func(trigger string) { seals = append(seals, trigger) })
	// 20% bad over retention against a 10% budget: twice overspent.
	f.all = [2]uint64{20, 100}
	for i := 0; i < 3; i++ {
		rep := e.Evaluate()
		st := rep.SLOs[0]
		if !st.Exhausted || st.BudgetSpent < 1 || st.Severity != 2 || rep.Overall != 2 {
			t.Fatalf("eval %d not exhausted/critical: %+v", i, st)
		}
	}
	if len(seals) != 1 || !strings.Contains(seals[0], "slo fake error budget exhausted") {
		t.Fatalf("seals = %v, want exactly one exhaustion seal", seals)
	}
	// Exhaustion stays latched even after the retention drains.
	f.all = [2]uint64{0, 100}
	if st := e.Evaluate().SLOs[0]; !st.Exhausted {
		t.Fatal("exhaustion unlatched when the window drained")
	}
}

// TestPerfectTargetBurnsInfinitely: a 100% target has no budget — any
// bad event is an enormous burn, not a division by zero.
func TestPerfectTargetBurnsInfinitely(t *testing.T) {
	f := &fakeCounts{fast: [2]uint64{1, 1000}, slow: [2]uint64{1, 1000}}
	e, _ := testEngine(t, f.slo(1.0, 2), nil)
	if st := e.Evaluate().SLOs[0]; !st.Firing || st.FastBurn < 1e3 {
		t.Fatalf("one bad event against a perfect target: %+v", st)
	}
}

// TestDefaultsAndNames: zero windows and threshold pick the 5m/1h/2x
// defaults; Names preserves declaration order.
func TestDefaultsAndNames(t *testing.T) {
	e := NewEngine(nil, clock.NewManual(), nil,
		SLO{Name: "a", Target: 0.9, Eval: func(*tsdb.DB, int64) (uint64, uint64) { return 0, 0 }},
		SLO{Name: "b", Target: 0.9, Eval: func(*tsdb.DB, int64) (uint64, uint64) { return 0, 0 }},
	)
	st := e.Evaluate().SLOs[0]
	if st.FastWindowNs != DefaultFastNs || st.SlowWindowNs != DefaultSlowNs || st.BurnAlert != DefaultBurn {
		t.Fatalf("defaults not applied: %+v", st)
	}
	if got := e.Evaluate().SLOs; len(got) != 2 || got[0].Name != "a" || got[1].Name != "b" {
		t.Fatalf("evaluation order = %+v", got)
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
		}}
		clk.Advance(1)
		db.Sample()
	}
	e := NewEngine(db, clk, nil,
		WriteAvailability("voting", 0.8, Windows{FastNs: 4, SlowNs: 16, Burn: 2}))

	// Healthy traffic fills both windows.
	var a, f uint64
	for i := 0; i < 16; i++ {
		a += 10
		set(a, f)
	}
	if st := e.Evaluate().SLOs[0]; st.Firing {
		t.Fatalf("healthy traffic fired: %+v", st)
	}
	// Total outage: every attempt fails, burn 1/0.2 = 5x in both windows.
	for i := 0; i < 16; i++ {
		a += 10
		f += 10
		set(a, f)
	}
	st := e.Evaluate().SLOs[0]
	if !st.Firing || st.FastBurn < 2 || st.SlowBurn < 2 {
		t.Fatalf("outage did not fire: %+v", st)
	}
	// Recovery drains the fast window first; the alert clears while the
	// slow window still remembers the outage.
	for i := 0; i < 8; i++ {
		a += 10
		set(a, f)
	}
	st = e.Evaluate().SLOs[0]
	if st.Firing || st.SlowBurn < 2 {
		t.Fatalf("recovery state: %+v (want cleared with slow window still burning)", st)
	}
}

// TestHandlerStatusCodes: /slo is 200 while budgets hold, 503 once one
// is exhausted, 404 with no engine.
func TestHandlerStatusCodes(t *testing.T) {
	f := &fakeCounts{}
	e, _ := testEngine(t, f.slo(0.9, 2), nil)
	srv := httptest.NewServer(Handler(e))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || len(rep.SLOs) != 1 {
		t.Fatalf("healthy /slo: status %d, %+v", resp.StatusCode, rep)
	}
	f.all = [2]uint64{50, 100}
	if resp, err = srv.Client().Get(srv.URL); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("exhausted /slo: status %d, want 503", resp.StatusCode)
	}
	none := httptest.NewServer(Handler(nil))
	defer none.Close()
	if resp, err = none.Client().Get(none.URL); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("disabled /slo: status %d, want 404", resp.StatusCode)
	}
}
