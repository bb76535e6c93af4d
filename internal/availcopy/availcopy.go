// Package availcopy implements the available copy consistency scheme of
// §3.2, adapted for block-level replication.
//
// The write rule is "write to all available copies"; reads are served
// from the local copy with no network traffic at all. Each site keeps a
// *was-available set* W_s — the sites that received the most recent write
// plus the sites that repaired from s — on stable storage. After a total
// failure, a block becomes accessible again once every site in the
// closure C*(W_s) has recovered: the closure is guaranteed to contain the
// site(s) that failed last, and therefore a copy with the most recent
// version (Figure 5).
//
// Following §3.2's relaxation of the atomic broadcast assumption, the
// was-available information piggybacks on write messages and may be one
// write out of date. Recipients therefore *merge* the piggybacked set
// into their stored set rather than replacing it: the stored set stays a
// superset of every site that may hold newer data, which keeps recovery
// safe (it can only wait for more sites than strictly necessary, never
// fewer). The coordinator of a write, which observes the acknowledgement
// set exactly, resets its own W to the true recipient set — W sets shrink
// again whenever a site coordinates a write.
package availcopy

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"relidev/internal/block"
	"relidev/internal/protocol"
	"relidev/internal/scheme"
	"relidev/internal/site"
)

// Controller is the available copy engine at one site.
type Controller struct {
	env     scheme.Env
	remotes []protocol.SiteID // every site but Self, fixed at construction

	// locks serialises same-block operations while letting distinct
	// blocks proceed concurrently; recovery excludes all in-flight
	// operations (see voting.Controller for the concurrency scope the
	// paper assumes). The site-wide was-available set stays safe under
	// concurrent writes because every recipient set a coordinator installs
	// contains the coordinator itself, which holds the newest version of
	// every block it wrote — whichever concurrent reset lands last, the
	// closure still reaches a site with current data.
	locks scheme.OpLocks
}

var _ scheme.Controller = (*Controller)(nil)

// New builds an available copy controller. A fresh, consistent replica
// set starts with W_s = S everywhere (every site holds the freshly
// formatted — hence identical — state).
func New(env scheme.Env) (*Controller, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{env: env, remotes: env.Remotes()}
	if c.env.Self.WasAvailable().Empty() {
		//relidev:allow locking: constructor runs single-threaded before the controller escapes; there is no concurrent operation to exclude yet
		if err := c.env.Self.SetWasAvailable(env.FullSet()); err != nil {
			return nil, fmt.Errorf("available copy: initialise was-available set: %w", err)
		}
	}
	return c, nil
}

// Name implements scheme.Controller.
func (c *Controller) Name() string { return "available-copy" }

// Read serves the block from the local copy: every available site holds
// the most recent version of every block, so reads cost no messages.
func (c *Controller) Read(ctx context.Context, idx block.Index) ([]byte, error) {
	return LocalRead(ctx, &c.locks, c.env, idx, "available copy")
}

// LocalRead is the read of both available copy schemes (§3.2, §3.3),
// run at env.Self under locks: serve the local copy, with zero network
// traffic, while the site is available. name labels the scheme in
// errors.
func LocalRead(ctx context.Context, locks *scheme.OpLocks, env scheme.Env, idx block.Index, name string) (_ []byte, err error) {
	op := locks.BeginOp(env.Obs, protocol.OpRead, idx)
	defer op.End(&err)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if env.Self.State() != protocol.StateAvailable {
		return nil, fmt.Errorf("%s read of %v at %v (%v): %w",
			name, idx, env.Self.ID(), env.Self.State(), scheme.ErrNotAvailable)
	}
	op.Start(ctx)
	op.Participants = 1
	data, _, err := env.Self.ReadLocal(idx)
	if err != nil {
		return nil, fmt.Errorf("%s read of %v: %w", name, idx, err)
	}
	return data, nil
}

// Write implements the available copy write rule: broadcast the new block
// to all sites; the available ones install it and acknowledge. The
// piggybacked was-available set describes the previous write (the §3.2
// delayed-information scheme); the coordinator then learns the exact
// recipient set from the acknowledgements and resets its own W to it.
func (c *Controller) Write(ctx context.Context, idx block.Index, data []byte) (err error) {
	op := c.locks.BeginOp(c.env.Obs, protocol.OpWrite, idx)
	defer op.End(&err)
	self := c.env.Self
	if self.State() != protocol.StateAvailable {
		return fmt.Errorf("available copy write of %v at %v (%v): %w",
			idx, self.ID(), self.State(), scheme.ErrNotAvailable)
	}
	ctx = op.Start(ctx)
	localVer, err := self.VersionLocal(idx)
	if err != nil {
		return fmt.Errorf("available copy write of %v: %w", idx, err)
	}
	newVer := localVer + 1
	// Install locally before the fan-out: a peer may apply the put even
	// when its reply is lost, and the next write here must then number
	// above it rather than reuse newVer for different data.
	if err := self.WriteLocal(idx, data, newVer); err != nil {
		return fmt.Errorf("available copy write of %v: %w", idx, err)
	}

	put := protocol.PutRequest{
		Block:   idx,
		Data:    data,
		Version: newVer,
		HasW:    true,
		// One write out of date by design: the set the *previous* write
		// established.
		WasAvail: self.WasAvailable(),
	}
	results := c.env.Transport.Broadcast(ctx, self.ID(), c.remotes, put)

	// Read in c.remotes order, not the map's, so a write that fails at
	// two sites returns the same error on every run.
	recipients := protocol.NewSiteSet(self.ID())
	for _, id := range c.remotes {
		res, ok := results[id]
		switch {
		case !ok:
			// No answer at all: the site missed the write.
		case res.Err == nil:
			recipients = recipients.Add(id)
		case errors.Is(res.Err, protocol.ErrTransient):
			// A transient wire failure against a peer *not* known to be
			// down must fail the whole write rather than silently drop
			// the peer: excluding a live site from the recipient set
			// would shrink W_s below the set of sites holding the most
			// recent write, and a later recovery could then adopt a
			// stale copy. Nothing retries: W_s is left untouched, and the
			// local copy already holds newVer, so the next write here
			// supersedes whatever the indeterminate peer installed.
			return fmt.Errorf("available copy write of %v: outcome at site %v indeterminate: %w", idx, id, res.Err)
		case errors.Is(res.Err, protocol.ErrSiteDown),
			errors.Is(res.Err, protocol.ErrSiteUnreachable),
			errors.Is(res.Err, site.ErrComatose),
			errors.Is(res.Err, site.ErrNotOperational):
			// Failed or not-yet-recovered sites simply miss the write;
			// they will repair when they come back.
		default:
			return fmt.Errorf("available copy write of %v at site %v: %w", idx, id, res.Err)
		}
	}
	op.Participants = recipients.Len()
	// The coordinator knows the recipient set exactly: W_s = sites that
	// received the most recent write.
	return self.SetWasAvailable(recipients)
}

// status is one site's answer to the recovery broadcast.
type status struct {
	state    protocol.SiteState
	wasAvail protocol.SiteSet
	sum      uint64
}

// Recover implements Figure 5 over the was-available sets the sites
// keep on stable storage.
func (c *Controller) Recover(ctx context.Context) error {
	return Recover(ctx, &c.locks, c.env, protocol.NewSiteSet())
}

// Recover is the recovery procedure of Figure 5 — and, given a frozen
// was-available set, of Figure 6 — run at env.Self under locks'
// recovery exclusion. The local site is comatose. It broadcasts a
// status query; then either
//
//   - some site is available: repair from it immediately, or
//   - every site in the closure C*(W_s) has recovered (is comatose or
//     available): the most current of them is known to hold the most
//     recent versions; repair from it (or, if that is the local site
//     itself, just become available), or
//   - otherwise: recovery must wait (ErrAwaitingSites).
//
// frozenW is §3.3's "available copy with W_s ≡ S" supplied as data: when
// non-empty it stands for every site's was-available set, so the
// closure is frozenW itself and recovery waits for exactly those sites;
// no stored set is read, joined at the source or persisted, and no
// closure event is recorded. Empty means the sets the sites store.
func Recover(ctx context.Context, locks *scheme.OpLocks, env scheme.Env, frozenW protocol.SiteSet) (err error) {
	op := locks.BeginRecovery(env.Obs)
	defer op.End(&err)
	self := env.Self
	if self.State() == protocol.StateAvailable {
		return nil
	}
	self.SetState(protocol.StateComatose)
	ctx = op.Start(ctx)
	// W_s ∪ {s}: the root of the closure, and the local site's own entry.
	tracked, root := frozenW.Empty(), frozenW
	if tracked {
		root = self.WasAvailable().Add(self.ID())
	}

	remotes := env.Remotes()
	results := env.Transport.Broadcast(ctx, self.ID(), remotes, protocol.StatusRequest{})
	states := map[protocol.SiteID]status{
		self.ID(): {state: protocol.StateComatose, wasAvail: root, sum: self.VersionSum()},
	}
	for _, id := range remotes {
		res, ok := results[id]
		if !ok || res.Err != nil {
			continue
		}
		st, ok := res.Resp.(protocol.StatusReply)
		if !ok {
			return fmt.Errorf("recovery at %v: site %v answered %T", self.ID(), id, res.Resp)
		}
		w := frozenW
		if tracked {
			w = st.WasAvail
		}
		states[id] = status{state: st.State, wasAvail: w, sum: st.VersionSum}
	}
	// Participation = status responders plus the recovering site itself.
	op.Participants = len(states)

	// Case 1: when ∃u ∈ S: state(u) = available, repair from any such u.
	if t, ok := pickAvailable(states); ok {
		return exchange(ctx, env, t, tracked)
	}

	// Case 2: when all sites in C*(W_s) have recovered, repair from the
	// most current member.
	closure := Closure(root, func(u protocol.SiteID) (protocol.SiteSet, bool) {
		st, ok := states[u]
		return st.wasAvail, ok
	})
	missing := 0
	for _, u := range closure.Members() {
		if _, ok := states[u]; !ok {
			missing++
		}
	}
	if tracked {
		env.Obs.ClosureRecomputed(root, closure, missing == 0)
	}
	if missing > 0 {
		return fmt.Errorf("recovery at %v: %d site(s) of closure %v still failed: %w",
			self.ID(), missing, closure, scheme.ErrAwaitingSites)
	}
	t := mostCurrent(states, closure)
	if t == self.ID() {
		// The local copy is the most recent: "let t: ∀u, version(t) >=
		// version(u)" picks s itself; no transfer needed and, per
		// Figure 5, the was-available set is left unchanged.
		self.SetState(protocol.StateAvailable)
		return nil
	}
	return exchange(ctx, env, t, tracked)
}

// exchange runs the version-vector exchange that ends Figures 5 and 6
// against source t and marks the local site available; the caller, this
// package's Recover, holds the recovery exclusion. The transfer
// arrives in pages of at most RecoveryBudget copies, continued under
// the reply's resume token, and the next page is on the wire while this
// one installs: its request goes out on its own goroutine, at most one
// ahead, and every return cancels it and waits for it. joinW makes it
// Figure 5's: t folds the local site into W_t and W_s <- W_t ∪ {s} — one
// logical join, after the first page. A source that vanishes mid-stream
// leaves the site comatose with a partially freshened image — harmless,
// since ApplyRepair's installs are version-monotone — and
// ErrAwaitingSites has a later recovery attempt run against a live
// source.
func exchange(ctx context.Context, env scheme.Env, t protocol.SiteID, joinW bool) error {
	self := env.Self
	ctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()
	next := make(chan protocol.Result, 1)
	fetch := func(req protocol.RecoveryRequest) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := env.Transport.Call(ctx, self.ID(), t, req)
			next <- protocol.Result{Resp: resp, Err: err}
		}()
	}
	req := protocol.RecoveryRequest{Vector: self.Vector(), JoinW: joinW, MaxBlocks: self.RecoveryBudget()}
	fetch(req)
	for {
		p := <-next
		if err := p.Err; err != nil {
			if scheme.IsTransportError(err) {
				return fmt.Errorf("recovery of %v from %v: %v: %w", self.ID(), t, err, scheme.ErrAwaitingSites)
			}
			return fmt.Errorf("recovery of %v from %v: %w", self.ID(), t, err)
		}
		rec, ok := p.Resp.(protocol.RecoveryReply)
		if !ok {
			return fmt.Errorf("recovery of %v from %v: unexpected reply %T", self.ID(), t, p.Resp)
		}
		if rec.More {
			req.JoinW, req.Cont = false, rec.Next
			fetch(req)
		}
		if _, err := self.ApplyRepair(rec.Blocks); err != nil {
			return err
		}
		if joinW {
			// The first reply carries W_t after the join.
			if err := self.SetWasAvailable(rec.WasAvail.Add(self.ID())); err != nil {
				return err
			}
			joinW = false
		}
		if !rec.More {
			self.SetState(protocol.StateAvailable)
			return nil
		}
		env.Obs.RecoveryPage()
	}
}

func pickAvailable(states map[protocol.SiteID]status) (protocol.SiteID, bool) {
	var best protocol.SiteID = -1
	var bestSum uint64
	for id, st := range states {
		if st.state != protocol.StateAvailable {
			continue
		}
		if best == -1 || st.sum > bestSum || (st.sum == bestSum && id < best) {
			best, bestSum = id, st.sum
		}
	}
	return best, best != -1
}

// mostCurrent picks the member of candidates with the greatest version
// sum, breaking ties toward the lowest id for determinism.
func mostCurrent(states map[protocol.SiteID]status, candidates protocol.SiteSet) protocol.SiteID {
	var best protocol.SiteID = -1
	var bestSum uint64
	for _, id := range candidates.Members() {
		st, ok := states[id]
		if !ok {
			continue
		}
		if best == -1 || st.sum > bestSum {
			best, bestSum = id, st.sum
		}
	}
	return best
}

// Closure computes C*(W), the closure of a was-available set (Definition
// 3.2, detailed in [8]): the least fixed point of
//
//	X = W ∪ ⋃ { W_u : u ∈ X, u has recovered }
//
// where lookup returns the stored was-available set of a recovered site
// (and ok=false for sites still failed, whose sets are unreadable). The
// closure contains every site that could hold data newer than any member
// of W; in particular it contains the site(s) that failed last.
func Closure(w protocol.SiteSet, lookup func(protocol.SiteID) (protocol.SiteSet, bool)) protocol.SiteSet {
	x := w
	for {
		next := x
		for _, u := range x.Members() {
			if wu, ok := lookup(u); ok {
				next = next.Union(wu)
			}
		}
		if next == x {
			return x
		}
		x = next
	}
}
