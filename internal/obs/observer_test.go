package obs

import (
	"context"
	"errors"
	"testing"

	"relidev/internal/clock"
	"relidev/internal/protocol"
)

func TestNilObserverAndSchemeObs(t *testing.T) {
	var o *Observer
	if o.Registry() != nil || o.Tracer() != nil {
		t.Fatal("nil observer handed out non-nil components")
	}
	if len(o.Snapshot().Counters) != 0 {
		t.Fatal("nil observer snapshot not empty")
	}
	s := o.SchemeSite("voting", 0)
	if s != nil {
		t.Fatal("nil observer returned a non-nil SchemeObs")
	}
	// Every SchemeObs method must be a nil-receiver no-op.
	ctx := context.Background()
	got, sp := s.StartOp(ctx, new(Scope), protocol.OpWrite, 3, s.Now())
	if got != ctx {
		t.Fatal("nil SchemeObs.StartOp altered the context")
	}
	sp.Done(2, nil)
	sp.Done(0, errors.New("boom"))
	s.QuorumAssembled(protocol.OpRead, 0, 2, 2)
	s.VersionResolved(protocol.OpRead, 0, 1)
	s.LazyRefresh(0, 1, 2)
	s.WTransition(0, 1)
	s.ClosureRecomputed(0, 1, true)
}

func TestSchemeObsCounters(t *testing.T) {
	clk := clock.NewManual()
	o := New(WithClock(clk), WithTracing(64))
	s := o.SchemeSite("voting", 2)
	if again := o.SchemeSite("voting", 2); again != s {
		t.Fatal("SchemeSite handle not cached")
	}

	_, sp := s.StartOp(context.Background(), new(Scope), protocol.OpWrite, 7, s.Now())
	sp.Done(3, nil)
	_, sp = s.StartOp(context.Background(), new(Scope), protocol.OpWrite, 7, s.Now())
	sp.Done(0, errors.New("quorum lost"))
	_, sp = s.StartOp(context.Background(), new(Scope), protocol.OpRead, 7, s.Now())
	sp.Done(2, nil)
	s.LazyRefresh(7, 1, 9)
	s.WTransition(0b111, 0b011)
	s.WTransition(0b011, 0b011) // no change: not a transition
	s.ClosureRecomputed(0b001, 0b011, false)

	snap := o.Snapshot()
	sl := L("scheme", "voting")
	type want struct {
		name string
		op   string
		val  uint64
	}
	for _, w := range []want{
		{MetricOpAttempts, protocol.OpWrite, 2},
		{MetricOpCompletions, protocol.OpWrite, 1},
		{MetricOpFailures, protocol.OpWrite, 1},
		{MetricOpParticipants, protocol.OpWrite, 3},
		{MetricOpAttempts, protocol.OpRead, 1},
		{MetricOpCompletions, protocol.OpRead, 1},
		{MetricOpParticipants, protocol.OpRead, 2},
		{MetricOpAttempts, protocol.OpRecovery, 0},
	} {
		labels := []Label{sl}
		if w.op != "" {
			labels = append(labels, L("op", w.op))
		}
		if got := snap.CounterTotal(w.name, labels...); got != w.val {
			t.Errorf("%s{op=%s} = %d, want %d", w.name, w.op, got, w.val)
		}
	}
	if got := snap.CounterTotal(MetricStaleReads, sl); got != 1 {
		t.Errorf("stale reads = %d, want 1", got)
	}
	if got := snap.CounterTotal(MetricWTransitions, sl); got != 1 {
		t.Errorf("w transitions = %d, want 1", got)
	}
	if got := snap.CounterTotal(MetricClosures, sl); got != 1 {
		t.Errorf("closures = %d, want 1", got)
	}

	// The trace stream saw the spans: op_start/op_end pairs plus the
	// structural events, all stamped by the logical clock.
	kinds := map[string]int{}
	for _, e := range o.Tracer().Events() {
		kinds[e.Kind]++
		if e.Scheme != "voting" || e.Site != 2 {
			t.Errorf("event %+v missing scheme/site stamps", e)
		}
	}
	for kind, want := range map[string]int{
		EvOpStart:           3,
		EvOpEnd:             3,
		EvLazyRefresh:       1,
		EvWTransition:       1,
		EvClosureRecomputed: 1,
	} {
		if kinds[kind] != want {
			t.Errorf("trace kind %s count = %d, want %d", kind, kinds[kind], want)
		}
	}
}

func TestStartOpUnknownOp(t *testing.T) {
	o := New()
	s := o.SchemeSite("naive", 0)
	_, sp := s.StartOp(context.Background(), new(Scope), "compact", NoBlock, s.Now()) // not an §5 op: ignored
	sp.Done(1, nil)
	if got := o.Snapshot().CounterTotal(MetricOpAttempts); got != 0 {
		t.Fatalf("unknown op counted: %d attempts", got)
	}
}

func TestLabelRoundTrip(t *testing.T) {
	o := New()
	s := o.SchemeSite("naive", 0)
	ctx, sp := s.StartOp(context.Background(), new(Scope), protocol.OpRecovery, NoBlock, s.Now())
	defer sp.Done(1, nil)
	if got := protocol.CtxOp(ctx); got != protocol.OpRecovery {
		t.Fatalf("CtxOp = %q, want %q", got, protocol.OpRecovery)
	}
}
