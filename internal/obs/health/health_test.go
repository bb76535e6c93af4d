package health

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"relidev/internal/clock"
	"relidev/internal/obs"
	"relidev/internal/protocol"
	"relidev/internal/repair"
)

// flagRule fires whenever *on is true — the minimal probe for driving
// the hysteresis state machine by hand.
func flagRule(name string, sev Severity, forNs, clearNs int64, on *bool) Rule {
	return Rule{Name: name, Severity: sev, ForNs: forNs, ClearNs: clearNs,
		Check: func(Input) Sample { return Sample{Firing: *on, Value: 1} }}
}

func emptySnap() obs.Snapshot { return obs.Snapshot{} }

func TestSeverityStrings(t *testing.T) {
	cases := map[Severity]string{OK: "ok", Warn: "warn", Critical: "critical", Severity(9): "unknown"}
	for sev, want := range cases {
		if sev.String() != want {
			t.Errorf("%d.String() = %q, want %q", sev, sev.String(), want)
		}
	}
	b, err := json.Marshal(Critical)
	if err != nil || string(b) != `"critical"` {
		t.Errorf("Marshal(Critical) = %s, %v", b, err)
	}
}

// TestHysteresisActivation: a rule with ForNs latches only after the
// condition has fired continuously that long; a flap in the middle
// resets the streak.
func TestHysteresisActivation(t *testing.T) {
	clk := clock.NewManual()
	on := false
	e := NewEngine(emptySnap, clk, nil, flagRule("r", Critical, 100, 0, &on))

	// Clear: never active.
	if v := e.Evaluate(); v.Overall != OK || v.Rules[0].Active {
		t.Fatalf("clear rule active: %+v", v.Rules[0])
	}

	// Fires at t=10; streak too short until t=110.
	on = true
	clk.Advance(10)
	if v := e.Evaluate(); v.Rules[0].Active {
		t.Fatal("activated with zero streak")
	}
	clk.Advance(50)
	if v := e.Evaluate(); v.Rules[0].Active {
		t.Fatal("activated before ForNs elapsed")
	}

	// Flap: one clear evaluation resets the streak start.
	on = false
	clk.Advance(20)
	e.Evaluate()
	on = true
	clk.Advance(10)
	e.Evaluate()
	clk.Advance(80) // only 80ns into the new streak
	if v := e.Evaluate(); v.Rules[0].Active {
		t.Fatal("flap did not reset the hysteresis streak")
	}
	clk.Advance(25) // 105ns into the new streak
	v := e.Evaluate()
	if !v.Rules[0].Active || v.Overall != Critical {
		t.Fatalf("rule did not latch after ForNs: %+v", v.Rules[0])
	}
	if v.Rules[0].Severity != Critical {
		t.Errorf("active severity = %v, want critical", v.Rules[0].Severity)
	}
}

// TestHysteresisClear: an active alert stays latched until the clear
// streak outlasts ClearNs.
func TestHysteresisClear(t *testing.T) {
	clk := clock.NewManual()
	on := true
	e := NewEngine(emptySnap, clk, nil, flagRule("r", Warn, 0, 50, &on))

	if v := e.Evaluate(); !v.Rules[0].Active {
		t.Fatal("ForNs=0 rule did not activate immediately")
	}

	on = false
	clk.Advance(10)
	if v := e.Evaluate(); !v.Rules[0].Active {
		t.Fatal("alert dropped before ClearNs elapsed")
	}
	clk.Advance(30)
	if v := e.Evaluate(); !v.Rules[0].Active {
		t.Fatal("alert dropped mid clear-streak")
	}
	clk.Advance(25)
	v := e.Evaluate()
	if v.Rules[0].Active {
		t.Fatal("alert still latched after ClearNs of clear")
	}
	if v.Overall != OK || v.Rules[0].Severity != OK {
		t.Errorf("cleared verdict = %+v, want OK", v.Rules[0])
	}
}

// TestOverallIsMaxOverActive: the fold takes the maximum severity over
// active rules only.
func TestOverallIsMaxOverActive(t *testing.T) {
	clk := clock.NewManual()
	warnOn, critOn := true, false
	e := NewEngine(emptySnap, clk, nil,
		flagRule("w", Warn, 0, 0, &warnOn),
		flagRule("c", Critical, 0, 0, &critOn))
	if v := e.Evaluate(); v.Overall != Warn {
		t.Fatalf("overall = %v, want warn (critical rule is clear)", v.Overall)
	}
	critOn = true
	clk.Advance(1)
	if v := e.Evaluate(); v.Overall != Critical {
		t.Fatalf("overall = %v, want critical", v.Overall)
	}
}

// TestFirstEvaluationWindow: rules see First on the first evaluation
// and a real elapsed window afterwards.
func TestFirstEvaluationWindow(t *testing.T) {
	clk := clock.NewManual()
	var got []Input
	r := Rule{Name: "probe", Check: func(in Input) Sample {
		got = append(got, in)
		return Sample{}
	}}
	e := NewEngine(emptySnap, clk, nil, r)
	e.Evaluate()
	clk.Advance(250)
	e.Evaluate()
	if !got[0].First || got[0].ElapsedNs != 0 {
		t.Errorf("first input = First=%v Elapsed=%d, want First=true Elapsed=0", got[0].First, got[0].ElapsedNs)
	}
	if got[1].First || got[1].ElapsedNs != 250 {
		t.Errorf("second input = First=%v Elapsed=%d, want First=false Elapsed=250", got[1].First, got[1].ElapsedNs)
	}
}

// TestHandlerStatusCodes: 200 below critical, 503 at critical, 404 for
// a nil engine; the body is the JSON verdict either way.
func TestHandlerStatusCodes(t *testing.T) {
	clk := clock.NewManual()
	on := false
	e := NewEngine(emptySnap, clk, nil, flagRule("r", Critical, 0, 0, &on))

	rec := httptest.NewRecorder()
	Handler(e)(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("healthy status = %d, want 200", rec.Code)
	}

	on = true
	clk.Advance(1)
	rec = httptest.NewRecorder()
	Handler(e)(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 503 {
		t.Fatalf("critical status = %d, want 503", rec.Code)
	}
	var v Verdict
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("verdict JSON: %v", err)
	}
	if v.Overall != Critical || len(v.Rules) != 1 {
		t.Errorf("served verdict = %+v", v)
	}

	rec = httptest.NewRecorder()
	Handler(nil)(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 404 {
		t.Errorf("nil engine status = %d, want 404", rec.Code)
	}
}

// TestConcurrentEvaluate: Evaluate is safe under concurrency (run with
// -race in CI).
func TestConcurrentEvaluate(t *testing.T) {
	clk := clock.NewManual()
	o := obs.New(obs.WithClock(clk))
	c := o.Registry().Counter(obs.MetricOpAttempts, obs.L("scheme", "voting"), obs.L("site", "site0"), obs.L("op", "write"))
	on := true
	e := NewEngine(o.Snapshot, clk, nil,
		flagRule("r", Warn, 5, 5, &on),
		ErrorRateRule(0.5))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c.Inc()
				e.Evaluate()
			}
		}()
	}
	wg.Wait()
}

// --- builtin rules against synthetic registries ---

// driveObserver returns an observer plus helpers for synthesising the
// op traffic the builtin rules read.
func driveOps(t *testing.T, o *obs.Observer, scheme string, participants int, fail bool, n int) {
	t.Helper()
	s := o.SchemeSite(scheme, 0)
	for i := 0; i < n; i++ {
		_, sp := s.StartOp(context.Background(), protocol.OpWrite, int64(i))
		if fail {
			sp.Done(0, context.DeadlineExceeded)
		} else {
			sp.Done(participants, nil)
		}
	}
}

func TestStalenessRule(t *testing.T) {
	clk := clock.NewManual()
	o := obs.New(obs.WithClock(clk))
	pol := repair.Policy{}
	r := StalenessRule(pol)
	if r.ForNs != pol.Deadline(1).Nanoseconds() {
		t.Errorf("ForNs = %d, want the policy deadline %d", r.ForNs, pol.Deadline(1).Nanoseconds())
	}

	in := Input{Snapshot: o.Snapshot()}
	if s := r.Check(in); s.Firing {
		t.Errorf("fired with no lag gauge: %+v", s)
	}
	o.Repair("voting", 2).SetLag(7)
	in.Snapshot = o.Snapshot()
	s := r.Check(in)
	if !s.Firing || s.Value != 7 {
		t.Errorf("lagged check = %+v, want firing value 7", s)
	}
	if !strings.Contains(s.Detail, "site2") {
		t.Errorf("detail %q does not name the stale site", s.Detail)
	}
	o.Repair("voting", 2).SetLag(0)
	in.Snapshot = o.Snapshot()
	if s := r.Check(in); s.Firing {
		t.Errorf("fired after lag cleared: %+v", s)
	}
}

func TestQuorumMarginRule(t *testing.T) {
	clk := clock.NewManual()
	o := obs.New(obs.WithClock(clk))
	r := QuorumMarginRule("voting", 3)

	if s := r.Check(Input{First: true}); s.Firing {
		t.Errorf("fired on the first window: %+v", s)
	}
	prev := o.Snapshot()
	driveOps(t, o, "voting", 5, false, 4) // margin 5-3 = 2: healthy
	s := r.Check(Input{Snapshot: o.Snapshot(), Prev: prev})
	if s.Firing || s.Value != 2 {
		t.Errorf("healthy margin check = %+v, want clear margin 2", s)
	}
	prev = o.Snapshot()
	driveOps(t, o, "voting", 3, false, 4) // margin 0: one failure from blocking
	s = r.Check(Input{Snapshot: o.Snapshot(), Prev: prev})
	if !s.Firing || s.Value != 0 {
		t.Errorf("tight margin check = %+v, want firing margin 0", s)
	}
}

func TestErrorRateRule(t *testing.T) {
	clk := clock.NewManual()
	o := obs.New(obs.WithClock(clk))
	r := ErrorRateRule(0.5)

	if s := r.Check(Input{First: true}); s.Firing {
		t.Errorf("fired on the first window: %+v", s)
	}
	if s := r.Check(Input{Snapshot: o.Snapshot(), Prev: obs.Snapshot{}}); s.Firing {
		t.Errorf("fired with no attempts: %+v", s)
	}
	prev := o.Snapshot()
	driveOps(t, o, "voting", 3, false, 3)
	driveOps(t, o, "voting", 0, true, 1) // 25% failures
	s := r.Check(Input{Snapshot: o.Snapshot(), Prev: prev})
	if s.Firing || s.Value != 0.25 {
		t.Errorf("25%% failure check = %+v, want clear rate 0.25", s)
	}
	prev = o.Snapshot()
	driveOps(t, o, "voting", 0, true, 3) // 100% failures this window
	s = r.Check(Input{Snapshot: o.Snapshot(), Prev: prev})
	if !s.Firing || s.Value != 1 {
		t.Errorf("total failure check = %+v, want firing rate 1", s)
	}
}

func TestBatcherOccupancyRule(t *testing.T) {
	clk := clock.NewManual()
	o := obs.New(obs.WithClock(clk))
	r := BatcherOccupancyRule(8)
	g := o.Registry().Gauge(obs.MetricGroupCommitOccupancy, obs.L("site", "site1"))

	g.Set(3)
	if s := r.Check(Input{Snapshot: o.Snapshot()}); s.Firing {
		t.Errorf("fired below saturation: %+v", s)
	}
	g.Set(8)
	s := r.Check(Input{Snapshot: o.Snapshot()})
	if !s.Firing || s.Value != 8 {
		t.Errorf("saturated check = %+v, want firing value 8", s)
	}
}

func TestConformanceDriftRule(t *testing.T) {
	clk := clock.NewManual()
	o := obs.New(obs.WithClock(clk))
	r := ConformanceDriftRule("voting", 0)
	s0 := o.SchemeSite("voting", 0)

	if s := r.Check(Input{First: true}); s.Firing {
		t.Errorf("fired on the first window: %+v", s)
	}
	prev := o.Snapshot()
	for i := 0; i < 4; i++ {
		_, sp := s0.StartOp(context.Background(), protocol.OpRead, int64(i))
		sp.Done(3, nil)
	}
	s := r.Check(Input{Snapshot: o.Snapshot(), Prev: prev})
	if s.Firing {
		t.Errorf("fired with no stale reads: %+v", s)
	}
	prev = o.Snapshot()
	_, sp := s0.StartOp(context.Background(), protocol.OpRead, 9)
	s0.LazyRefresh(9, 1, 2) // a stale read repaired in-line
	sp.Done(3, nil)
	s = r.Check(Input{Snapshot: o.Snapshot(), Prev: prev})
	if !s.Firing || s.Value != 1 {
		t.Errorf("stale window check = %+v, want firing fraction 1", s)
	}
}
