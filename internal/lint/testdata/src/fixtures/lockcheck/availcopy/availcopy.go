// Seeded mutation for lockcheck (ROADMAP item 4): fixture copies of
// availcopy.Write on the op bracket and of the shared recovery code
// (Recover + Exchange), each faithful once and with a real bug of the
// analyzer's class planted. The analyzer must flag every mutant and
// pass the originals.
package availcopy

import (
	"context"
	"errors"

	"relidev/internal/block"
	"relidev/internal/protocol"
	"relidev/internal/scheme"
	"relidev/internal/site"
)

var errNotAvailable = errors.New("not available")

type Controller struct {
	locks     scheme.OpLocks
	obs       *scheme.SchemeObs
	self      *site.Replica
	transport protocol.Transport
	remotes   []protocol.SiteID
}

type put struct{}

func (put) Kind() string { return "put" }

// ok: the production shape.
func (c *Controller) Write(ctx context.Context, idx block.Index, data []byte) (err error) {
	op := c.locks.BeginOp(c.obs, "write", idx)
	defer op.End(&err)
	if c.self.ID() != 0 {
		return errNotAvailable
	}
	ctx = op.Start(ctx)
	recipients := protocol.SiteSet{c.self.ID(): {}}
	for id, res := range c.transport.Broadcast(ctx, c.self.ID(), c.remotes, put{}) {
		if res.Err == nil {
			recipients[id] = struct{}{}
		}
	}
	if err := c.self.WriteLocal(idx, data, 1); err != nil {
		return err
	}
	op.Participants = len(recipients)
	return c.self.SetWasAvailable(recipients)
}

// Mutant (a): the end is called at the tail instead of deferred, so
// every early return — the availability gate, a failed local write —
// leaks the stripe and the next write to the block deadlocks.
func (c *Controller) writeEndNotDeferred(ctx context.Context, idx block.Index, data []byte) (err error) {
	op := c.locks.BeginOp(c.obs, "write", idx) // want "immediately followed by 'defer op.End"
	if c.self.ID() != 0 {
		return errNotAvailable
	}
	ctx = op.Start(ctx)
	recipients := protocol.SiteSet{c.self.ID(): {}}
	for id, res := range c.transport.Broadcast(ctx, c.self.ID(), c.remotes, put{}) {
		if res.Err == nil {
			recipients[id] = struct{}{}
		}
	}
	if err := c.self.WriteLocal(idx, data, 1); err != nil {
		return err
	}
	op.Participants = len(recipients)
	err = c.self.SetWasAvailable(recipients)
	op.End(&err) // want "Op.End outside a defer"
	return err
}

// Mutant (b): the was-available reset is hoisted above the acquisition,
// so it races a concurrent write's reset and recovery's join — W_s can
// end up naming a set no write established.
func (c *Controller) writeResetHoisted(ctx context.Context, idx block.Index, data []byte) (err error) {
	recipients := protocol.SiteSet{c.self.ID(): {}}
	if err := c.self.SetWasAvailable(recipients); err != nil { // want "SetWasAvailable before the OpLocks acquisition"
		return err
	}
	op := c.locks.BeginOp(c.obs, "write", idx)
	defer op.End(&err)
	ctx = op.Start(ctx)
	c.transport.Broadcast(ctx, c.self.ID(), c.remotes, put{})
	op.Participants = len(recipients)
	return c.self.WriteLocal(idx, data, 1)
}

// ok: the shared recovery shape — a package-level Recover that takes
// the recovery exclusion itself, and the exchange every scheme ends
// in, vouched for by its one locked caller.
func Recover(ctx context.Context, locks *scheme.OpLocks, obs *scheme.SchemeObs, self *site.Replica) (err error) {
	op := locks.BeginRecovery(obs)
	defer op.End(&err)
	self.SetState(1)
	ctx = op.Start(ctx)
	return Exchange(ctx, self)
}

func Exchange(ctx context.Context, self *site.Replica) error {
	if err := self.SetWasAvailable(protocol.SiteSet{self.ID(): {}}); err != nil {
		return err
	}
	self.SetState(2)
	return nil
}

// Mutant (c): a second way into the same exchange that skips the
// recovery exclusion, so the join and the comatose→available flip race
// in-flight writes resetting W_s.
func exchangeUnlocked(ctx context.Context, self *site.Replica) error {
	if err := self.SetWasAvailable(protocol.SiteSet{self.ID(): {}}); err != nil { // want "SetWasAvailable outside an OpLocks critical section"
		return err
	}
	self.SetState(2) // want "SetState outside an OpLocks critical section"
	return nil
}

func (c *Controller) recoverSkippingExclusion(ctx context.Context) error {
	return exchangeUnlocked(ctx, c.self)
}
