package alert_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"relidev/internal/clock"
	"relidev/internal/obs"
	"relidev/internal/obs/alert"
	"relidev/internal/obs/tsdb"
	"relidev/internal/protocol"
)

// The threshold policy's tests are in ../health and the burn-rate
// policy's in ../slo, where they were before the engines merged; this
// file covers what only the merged engine has.

type rig struct {
	clk *clock.Manual
	o   *obs.Observer
	db  *tsdb.DB
}

func newRig() *rig {
	clk := clock.NewManual()
	o := obs.New(obs.WithClock(clk))
	return &rig{clk: clk, o: o, db: tsdb.New(tsdb.Config{Clock: clk, Source: o.Snapshot, StepNs: 10, Retain: 64})}
}

func (r *rig) sample() {
	r.clk.Advance(10)
	r.db.Sample()
}

func (r *rig) op(kind string, took time.Duration, err error) {
	_, sp := r.o.SchemeSite("voting", 0).StartOp(context.Background(), kind, 0)
	r.clk.Advance(took)
	sp.Done(3, err)
}

// TestOneEvaluationTwoViews: one engine holds both policies; one
// Evaluate judges them off the same ring, /healthz and /slo are views
// of that one report with the fold retaken over each, and when both go
// critical in one evaluation the seals come in objective order.
func TestOneEvaluationTwoViews(t *testing.T) {
	r := newRig()
	var seals []string
	e := alert.NewEngine(r.db, r.clk, func(s string) { seals = append(seals, s) },
		alert.QuorumMargin("voting", 3),
		alert.ErrorRate(0.5),
		alert.WriteAvailability("voting", alert.Burn{Target: 0.5, FastNs: 20, SlowNs: 40}),
	)
	r.op(protocol.OpWrite, 0, nil)
	r.sample()
	if rep := e.Evaluate(); rep.Overall != alert.OK || rep.Firing != 0 || len(rep.Objectives) != 3 {
		t.Fatalf("quiet evaluation = %+v", rep)
	}
	for i := 0; i < 4; i++ {
		r.op(protocol.OpWrite, 0, context.DeadlineExceeded)
	}
	r.sample()
	rep := e.Evaluate()
	health, slo := rep.View(alert.PolicyThreshold), rep.View(alert.PolicyBurn)
	if len(health.Objectives) != 2 || health.Overall != alert.Critical || health.Firing != 1 || health.AtNs != rep.AtNs {
		t.Errorf("threshold view = %+v", health)
	}
	// 4 of 5 writes failed against a budget of half: 1.6x overspent.
	if len(slo.Objectives) != 1 || slo.Overall != alert.Critical || !slo.Objectives[0].Latched || slo.Objectives[0].Value != 1.6 {
		t.Errorf("burn view = %+v", slo)
	}
	want := []string{"health: error_rate (1 (4/4))", "slo write_availability_voting error budget exhausted"}
	if !reflect.DeepEqual(seals, want) {
		t.Errorf("seals = %q, want %q", seals, want)
	}
	// Neither reader sampled: a second evaluation of the same ring is
	// the same verdict, and a set latch does not seal again.
	if again := e.Evaluate(); !reflect.DeepEqual(again.Objectives, rep.Objectives) || len(seals) != 2 {
		t.Errorf("re-evaluation moved: %+v\nseals %q", again, seals)
	}
	if empty := rep.View("nope"); len(empty.Objectives) != 0 || empty.Overall != alert.OK {
		t.Errorf("unknown policy's view = %+v", empty)
	}
}

// TestLazyRefreshIsNotAnAlert: a voting read that finds its local copy
// stale repairs it with one fetch — the behaviour Figure 3 describes
// and §5.1 prices at one extra message. The deleted conformance-drift
// objective called each such read a stale read served and went critical
// on it; no objective of the default conditions may.
func TestLazyRefreshIsNotAnAlert(t *testing.T) {
	r := newRig()
	burn := alert.Burn{Target: 0.99, FastNs: 20, SlowNs: 40}
	e := alert.NewEngine(r.db, r.clk, func(s string) { t.Errorf("sealed: %s", s) },
		alert.QuorumMargin("voting", 2), alert.ErrorRate(0.1), alert.BatcherOccupancy(64),
		alert.ReadLatency("voting", 4096, burn), alert.WriteAvailability("voting", burn))
	r.sample()
	for i := 0; i < 3; i++ {
		r.op(protocol.OpRead, 5, nil)
		r.o.SchemeSite("voting", 0).LazyRefresh(0, 1, 2)
		r.sample()
		if rep := e.Evaluate(); rep.Overall != alert.OK || rep.Firing != 0 {
			t.Fatalf("sample %d: a lazy refresh raised %+v", i, rep)
		}
	}
	if got := r.o.Snapshot().CounterTotal(obs.MetricStaleReads); got != 3 {
		t.Fatalf("lazy refreshes counted = %d, want 3 (the §5 check charges them)", got)
	}
}

// TestReadLatencyOverRing: observations above the threshold burn the
// latency budget; a threshold at or above every bucket burns nothing.
func TestReadLatencyOverRing(t *testing.T) {
	r := newRig()
	e := alert.NewEngine(r.db, r.clk, nil,
		alert.ReadLatency("voting", 4096, alert.Burn{Target: 0.5, FastNs: 20, SlowNs: 40}),
		alert.ReadLatency("voting", 1e9, alert.Burn{Target: 0.5, FastNs: 20, SlowNs: 40}))
	for i := 0; i < 3; i++ {
		r.op(protocol.OpRead, 100, nil)   // fast
		r.op(protocol.OpRead, 50000, nil) // slow
		r.op(protocol.OpRead, 50000, nil)
		r.op(protocol.OpWrite, 50000, nil) // not a read
		r.sample()
	}
	rep := e.Evaluate()
	// 2 of 3 reads over 4µs against a budget of half: a 1.33x burn —
	// under the 2x alert rate, but the budget is spent.
	if st := rep.Objectives[0]; st.Firing || !st.Latched || st.Burn.FastBurn < 1.33 || st.Burn.FastBurn > 1.34 {
		t.Errorf("latency objective: %+v %+v", st, st.Burn)
	}
	if st := rep.Objectives[1]; st.Firing || st.Value != 0 {
		t.Errorf("no read is over 1s: %+v", st)
	}
}
