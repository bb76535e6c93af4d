// Package naiveac implements the naive available copy consistency scheme
// of §3.3 — the paper's algorithm of choice.
//
// It behaves like the available copy scheme with the was-available sets
// frozen at W_s = S: no failure bookkeeping is kept at all. Writes are a
// single broadcast (the reliable delivery assumption covers the
// acknowledgements), reads are local, and after a total failure the
// recovery procedure of Figure 6 waits until *every* site has recovered,
// then adopts the copy with the highest version.
package naiveac

import (
	"context"
	"fmt"

	"relidev/internal/availcopy"
	"relidev/internal/block"
	"relidev/internal/protocol"
	"relidev/internal/scheme"
)

// Controller is the naive available copy engine at one site.
type Controller struct {
	env     scheme.Env
	remotes []protocol.SiteID // every site but Self, fixed at construction

	// locks serialises same-block operations while letting distinct
	// blocks proceed concurrently; recovery excludes all in-flight
	// operations.
	locks scheme.OpLocks
}

var _ scheme.Controller = (*Controller)(nil)

// New builds a naive available copy controller.
func New(env scheme.Env) (*Controller, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	return &Controller{env: env, remotes: env.Remotes()}, nil
}

// Name implements scheme.Controller.
func (c *Controller) Name() string { return "naive" }

// Read serves the block locally, exactly as the available copy scheme
// does: zero network traffic.
func (c *Controller) Read(ctx context.Context, idx block.Index) ([]byte, error) {
	return availcopy.LocalRead(ctx, &c.locks, c.env, idx, "naive")
}

// Write broadcasts the block to all sites with no acknowledgement
// traffic: one high-level transmission in a multi-cast network, n-1 with
// unique addressing (§5). Because no was-available information is
// maintained, nothing is piggybacked.
func (c *Controller) Write(ctx context.Context, idx block.Index, data []byte) (err error) {
	op := c.locks.BeginOp(c.env.Obs, protocol.OpWrite, idx)
	defer op.End(&err)
	self := c.env.Self
	if self.State() != protocol.StateAvailable {
		return fmt.Errorf("naive write of %v at %v (%v): %w",
			idx, self.ID(), self.State(), scheme.ErrNotAvailable)
	}
	ctx = op.Start(ctx)
	op.Participants = 1
	localVer, err := self.VersionLocal(idx)
	if err != nil {
		return fmt.Errorf("naive write of %v: %w", idx, err)
	}
	newVer := localVer + 1
	put := protocol.PutRequest{Block: idx, Data: data, Version: newVer}
	// Fire-and-forget: failed sites miss the write and repair later;
	// comatose sites reject it (they must not mix old and new blocks).
	//relidev:allow transport: §3.3's naive scheme assumes reliable delivery to available sites; per-site outcomes are intentionally not observed
	c.env.Transport.Notify(ctx, self.ID(), c.remotes, put)
	if err := self.WriteLocal(idx, data, newVer); err != nil {
		return fmt.Errorf("naive write of %v: %w", idx, err)
	}
	return nil
}

// Recover implements Figure 6, which is Figure 5 with the was-available
// sets frozen at W_s = S: if some site is available, repair from it;
// otherwise wait until every site has recovered and repair from (or
// become) the one with the highest version.
func (c *Controller) Recover(ctx context.Context) error {
	return availcopy.Recover(ctx, &c.locks, c.env, c.env.FullSet())
}
