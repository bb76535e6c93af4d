package scheme

import (
	"context"
	"errors"
	"testing"

	"relidev/internal/block"
	"relidev/internal/obs"
	"relidev/internal/protocol"
)

// bracketed runs one operation the way every controller method does:
// acquire, deferred end, an availability gate, start, the body's error.
func bracketed(l *OpLocks, ob *obs.SchemeObs, kind string, gate, body error) (err error) {
	var op Op
	if kind == protocol.OpRecovery {
		op = l.BeginRecovery(ob)
	} else {
		op = l.BeginOp(ob, kind, block.Index(3))
	}
	defer op.End(&err)
	if gate != nil {
		return gate
	}
	ctx := op.Start(context.Background())
	if got := protocol.CtxOp(ctx); ob != nil && got != kind {
		return errors.New("context labelled " + got + ", want " + kind)
	}
	op.Participants = 2
	return body
}

// TestOpBracketCounts: an operation refused at the gate counts no
// attempt, a started one counts its outcome, and the lock is released
// on every path (each call below would deadlock on a leaked stripe or
// recovery exclusion).
func TestOpBracketCounts(t *testing.T) {
	o := obs.New()
	ob := o.SchemeSite("voting", 0)
	var l OpLocks
	boom := errors.New("boom")
	for _, kind := range []string{protocol.OpRead, protocol.OpWrite, protocol.OpRecovery} {
		if err := bracketed(&l, ob, kind, ErrNotAvailable, nil); !errors.Is(err, ErrNotAvailable) {
			t.Fatalf("%s gate: %v", kind, err)
		}
		if err := bracketed(&l, ob, kind, nil, nil); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if err := bracketed(&l, ob, kind, nil, boom); err != boom {
			t.Fatalf("%s failing body: %v", kind, err)
		}
		if err := bracketed(&l, nil, kind, nil, nil); err != nil {
			t.Fatalf("%s unmetered: %v", kind, err)
		}
	}
	snap := o.Snapshot()
	for name, want := range map[string]uint64{
		obs.MetricOpAttempts:     6, // three kinds × (completed + failed); refused and unmetered ones count nothing
		obs.MetricOpCompletions:  3,
		obs.MetricOpFailures:     3,
		obs.MetricOpParticipants: 6,
	} {
		if got := snap.CounterTotal(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestOpBracketAllocs: on a metered, untraced handle the whole bracket
// — acquire, start (label, phase recorder, span), end — allocates
// nothing, and neither do StartOp+Done alone: the op's scope, which is
// also its context node, is storage the caller owns (the bracket's is
// the held stripe's slot). The bracket itself is a stack value.
func TestOpBracketAllocs(t *testing.T) {
	ob := obs.New().SchemeSite("voting", 0)
	var l OpLocks
	var sc obs.Scope
	ctx := context.Background()
	if bare := testing.AllocsPerRun(200, func() {
		_, sp := ob.StartOp(ctx, &sc, protocol.OpWrite, 3, ob.Now())
		sp.Done(2, nil)
	}); bare != 0 {
		t.Errorf("StartOp+Done = %v allocs, want 0", bare)
	}
	if got := testing.AllocsPerRun(200, func() { bracketed(&l, ob, protocol.OpWrite, nil, nil) }); got != 0 {
		t.Errorf("bracket = %v allocs, want 0", got)
	}
	if recovery := testing.AllocsPerRun(200, func() { bracketed(&l, ob, protocol.OpRecovery, nil, nil) }); recovery != 0 {
		t.Errorf("recovery bracket = %v allocs, want 0", recovery)
	}
	if refused := testing.AllocsPerRun(200, func() { bracketed(&l, ob, protocol.OpWrite, ErrNotAvailable, nil) }); refused != 0 {
		t.Errorf("refused op = %v allocs, want 0", refused)
	}
	if unmetered := testing.AllocsPerRun(200, func() { bracketed(&l, nil, protocol.OpRead, nil, nil) }); unmetered != 0 {
		t.Errorf("unmetered op = %v allocs, want 0", unmetered)
	}
}

type callerKey struct{}

// TestOpContextDiesAtEnd: the context an op hands its figure lives in
// the held lock's scope slot, and End empties the slot. A context kept
// from inside the op past End resolves no op — no label, no phase
// recorder, no span — and keeps nothing of the caller's context, traced
// or not, for block operations and recovery alike.
func TestOpContextDiesAtEnd(t *testing.T) {
	for _, o := range []*obs.Observer{obs.New(), obs.New(obs.WithTracing(64))} {
		ob := o.SchemeSite("ac", 0)
		var l OpLocks
		for _, kind := range []string{protocol.OpWrite, protocol.OpRecovery} {
			caller := context.WithValue(context.Background(), callerKey{}, "caller")
			var kept context.Context
			func() (err error) {
				var op Op
				if kind == protocol.OpRecovery {
					op = l.BeginRecovery(ob)
				} else {
					op = l.BeginOp(ob, kind, 70)
				}
				defer op.End(&err)
				kept = op.Start(caller)
				if protocol.CtxOp(kept) != kind || protocol.CtxPhases(kept) == nil || kept.Value(callerKey{}) != "caller" {
					t.Fatalf("%s: inside the op the context resolves op %q, phases %v, caller value %v",
						kind, protocol.CtxOp(kept), protocol.CtxPhases(kept), kept.Value(callerKey{}))
				}
				return nil
			}()
			if op, rec, sc := protocol.CtxOp(kept), protocol.CtxPhases(kept), protocol.CtxSpan(kept); op != "" || rec != nil || sc.Valid() {
				t.Errorf("%s: past End a kept context resolves op %q, phases %v, span %+v", kind, op, rec, sc)
			}
			if v := kept.Value(callerKey{}); v != nil {
				t.Errorf("%s: past End a kept context still reaches the caller's value %v", kind, v)
			}
		}
	}
}
