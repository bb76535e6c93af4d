package scheme

import (
	"context"

	"relidev/internal/block"
	"relidev/internal/obs"
	"relidev/internal/protocol"
)

// An Op is the bracket every controller operation runs in — the part of
// a Read, Write or Recover that is the same in all three schemes, so the
// method bodies can read like the paper's figures:
//
//	op := c.locks.BeginOp(c.env.Obs, protocol.OpRead, idx) // or BeginRecovery
//	defer op.End(&err)
//	... the scheme's availability gate, if it has one ...
//	ctx = op.Start(ctx)
//	... the figure ...
//
// It is a plain value on the caller's stack (no allocation, no
// interface), and the op's obs.Scope lives in the lock it holds; with a
// nil SchemeObs every observation in it is a no-op.
type Op struct {
	locks *OpLocks
	obs   *obs.SchemeObs
	scope *obs.Scope // the held lock's slot, which Start fills in
	kind  string
	blk   int64 // block index, or obs.NoBlock when the recovery exclusion is held
	wait  int64 // ns spent acquiring the lock
	span  obs.OpSpan

	// Participants is the number of sites that took part, local site
	// included (the measured §5 participation level U), recorded by End
	// for operations that complete.
	Participants int
}

// BeginOp acquires idx's stripe for a read or write (kind is
// protocol.OpRead or OpWrite), timing the wait on the observer's clock.
func (l *OpLocks) BeginOp(ob *obs.SchemeObs, kind string, idx block.Index) Op {
	t0 := ob.Now()
	l.LockOp(idx)
	return Op{locks: l, obs: ob, scope: &l.scopes[block.Stripe(idx)], kind: kind, blk: int64(idx), wait: ob.Now() - t0}
}

// BeginRecovery acquires the structure exclusively, waiting out every
// in-flight block operation and blocking new ones.
func (l *OpLocks) BeginRecovery(ob *obs.SchemeObs) Op {
	t0 := ob.Now()
	l.state.Lock()
	return Op{locks: l, obs: ob, scope: &l.recovery, kind: protocol.OpRecovery, blk: obs.NoBlock, wait: ob.Now() - t0}
}

// Start opens the operation's span: it counts the attempt, puts the §5
// label, the phase recorder and the trace span into the returned
// context, all held in the lock's scope slot, and charges the lock
// wait to the span. The context is valid until End. Call it past the
// scheme's availability gate — an operation refused there generates no
// traffic, so it must count no attempt either, or the measured
// messages-per-attempt would fall out of the §5 brackets.
func (o *Op) Start(ctx context.Context) context.Context {
	ctx, o.span = o.obs.StartOp(ctx, o.scope, o.kind, o.blk)
	o.span.AddLockWait(o.wait)
	return ctx
}

// End closes the span with the operation's outcome (a no-op for an
// operation refused before Start), which empties the scope slot, then
// releases the lock. Defer it right after the acquisition, on the
// method's named error result.
func (o *Op) End(err *error) {
	o.span.Done(o.Participants, *err)
	if o.blk == obs.NoBlock {
		o.locks.state.Unlock()
	} else {
		o.locks.UnlockOp(block.Index(o.blk))
	}
}
