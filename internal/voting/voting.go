// Package voting implements the majority consensus voting consistency
// scheme of §3.1, adapted to block-level replication exactly as the paper
// describes: per-block version numbers, weighted quorums, and *lazy*
// recovery — an out-of-date block is repaired only when the file system
// touches it, so a recovering site generates no network traffic at all
// (§5.1: "the voting algorithm presented in this paper incurs no traffic
// upon recovery").
//
// The read algorithm is Figure 3, the write algorithm Figure 4.
package voting

import (
	"context"
	"errors"
	"fmt"

	"relidev/internal/block"
	"relidev/internal/protocol"
	"relidev/internal/scheme"
	"relidev/internal/site"
)

// Option customises a Controller.
type Option func(*Controller)

// WithTwoRoundWrites restores the literal Figure 4 write: a vote
// collection round followed by a separate put fan-out. By default the
// controller uses the pipelined single-round write path (DESIGN.md
// §12), which ships the proposed version and the data in one combined
// prepare-write broadcast and falls back to this two-round shape only
// on version conflict. The option exists for the §5 traffic-model rigs,
// whose per-write transmission counts assume the paper's exact message
// sequence.
func WithTwoRoundWrites() Option {
	return func(c *Controller) { c.twoRound = true }
}

// Controller is the voting consistency engine at one site.
type Controller struct {
	env     scheme.Env
	remotes []protocol.SiteID // every site but Self, fixed at construction
	// weight is the vote of each site, indexed by id, copied from
	// env.Weights: the one record of who counts for how much.
	weight [protocol.MaxSites]int64
	// threshold is half the total weight; a read or write quorum holds
	// when the collected weight strictly exceeds it.
	threshold int64
	twoRound  bool

	// locks serialises same-block operations issued at this site while
	// letting distinct blocks proceed concurrently; recovery excludes all
	// in-flight operations. The paper explicitly leaves multi-writer
	// concurrency control (commit protocols) out of scope (§5): concurrent
	// writes from different sites are not ordered, and can leave copies
	// that disagree at equal versions.
	locks scheme.OpLocks
}

var _ scheme.Controller = (*Controller)(nil)

// New builds a voting controller. Both quorums are simple majorities of
// the total weight: a quorum holds when the collected weight strictly
// exceeds half the total, so any two quorums intersect. With the even-n
// tie-breaking weight adjustment of §4.1 applied by the caller, draws
// are impossible.
func New(env scheme.Env, opts ...Option) (*Controller, error) {
	if err := env.Validate(); err != nil {
		return nil, err
	}
	if env.Weights == nil {
		return nil, fmt.Errorf("voting: env requires site weights")
	}
	c := &Controller{env: env, remotes: env.Remotes(), threshold: env.TotalWeight() / 2}
	for i, id := range env.Sites {
		c.weight[id] = env.Weights[i]
	}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// Name implements scheme.Controller.
func (c *Controller) Name() string { return "voting" }

// vote is one collected vote.
type vote struct {
	from    protocol.SiteID
	version block.Version
}

// ballot is the votes of one round, collected on the coordinator's
// stack: a group has at most MaxSites voters.
type ballot struct {
	votes  [protocol.MaxSites]vote
	n      int
	weight int64 // total weight of votes[:n]
	staged int64 // weight of the remote sites that installed a prepare-write
}

func (b *ballot) add(v vote, weight int64) {
	b.votes[b.n] = v
	b.n++
	b.weight += weight
}

// collect runs one vote round for block idx: the local vote (which
// costs no traffic) plus a VoteRequest broadcast to every remote site.
// With stage set it is the single-round write path's combined round
// instead: it proposes the local version + 1 and ships stage in a
// PrepareWriteRequest, which every reachable site answers with the same
// vote fields, staging the proposal when it is strictly newer than its
// copy. collect returns that proposed version.
func (c *Controller) collect(ctx context.Context, b *ballot, idx block.Index, stage []byte) (proposed block.Version, err error) {
	self := c.env.Self
	localVer, err := self.VersionLocal(idx)
	if err != nil {
		return 0, fmt.Errorf("voting: local version: %w", err)
	}
	proposed = localVer + 1
	var req protocol.Request
	if stage == nil {
		req = protocol.VoteRequest{Block: idx}
	} else {
		req = protocol.PrepareWriteRequest{Block: idx, Data: stage, Version: proposed}
	}
	b.add(vote{from: self.ID(), version: localVer}, c.weight[self.ID()])
	// The ballot is filled in c.remotes order, not the map's, so the
	// votes, the error returned and the put fan-out built from them are
	// the same on every run.
	results := c.env.Transport.Broadcast(ctx, self.ID(), c.remotes, req)
	for _, id := range c.remotes {
		res, ok := results[id]
		if !ok || res.Err != nil {
			continue // unreachable or failed site: no vote
		}
		switch reply := res.Resp.(type) {
		case protocol.VoteReply:
			b.add(vote{from: id, version: reply.Version}, c.weight[id])
		case protocol.PrepareWriteReply:
			b.add(vote{from: id, version: reply.Version}, c.weight[id])
			if reply.Staged {
				b.staged += c.weight[id]
			}
		default:
			return 0, fmt.Errorf("voting: site %v answered %T to a %s", id, res.Resp, req.Kind())
		}
	}
	return proposed, nil
}

// maxVote returns the vote with the highest version; among equal
// versions the lowest site id wins, so a read repairs from the same
// site whatever order the broadcast's replies arrived in.
func maxVote(votes []vote) vote {
	best := votes[0]
	for _, v := range votes[1:] {
		if v.version > best.version || v.version == best.version && v.from < best.from {
			best = v
		}
	}
	return best
}

// Read implements Figure 3: collect votes, check the read quorum, repair
// the local copy from the most current site if it is out of date (one
// extra transmission), then read locally.
func (c *Controller) Read(ctx context.Context, idx block.Index) (_ []byte, err error) {
	ob := c.env.Obs
	op := c.locks.BeginOp(ob, protocol.OpRead, idx)
	defer op.End(&err)
	ctx = op.Start(ctx)

	var b ballot
	if _, err := c.collect(ctx, &b, idx, nil); err != nil {
		return nil, err
	}
	votes, weight := b.votes[:b.n], b.weight
	ob.QuorumAssembled(protocol.OpRead, idx, len(votes), weight)
	if weight <= c.threshold {
		return nil, fmt.Errorf("voting read of %v: collected weight %d of %d required: %w",
			idx, weight, c.threshold+1, scheme.ErrNoQuorum)
	}
	op.Participants = len(votes)
	best := maxVote(votes)
	ob.VersionResolved(protocol.OpRead, idx, best.version)
	self := c.env.Self
	localVer, _ := self.VersionLocal(idx)
	if localVer < best.version && best.from != self.ID() {
		resp, err := c.env.Transport.Fetch(ctx, self.ID(), best.from, protocol.FetchRequest{Block: idx})
		if err != nil {
			return nil, fmt.Errorf("voting read repair of %v from %v: %w", idx, best.from, err)
		}
		f, ok := resp.(protocol.FetchReply)
		if !ok {
			return nil, fmt.Errorf("voting read repair of %v: unexpected reply %T", idx, resp)
		}
		ob.LazyRefresh(idx, best.from, f.Version)
		if err := self.WriteLocal(idx, f.Data, f.Version); err != nil {
			return nil, fmt.Errorf("voting read repair of %v: %w", idx, err)
		}
	}
	data, _, err := self.ReadLocal(idx)
	if err != nil {
		return nil, fmt.Errorf("voting read of %v: %w", idx, err)
	}
	return data, nil
}

// Write realises the Figure 4 write. By default it takes the pipelined
// single-round path (DESIGN.md §12): one prepare-write broadcast both
// collects the votes and provisionally installs the data, and the write
// commits when the voted weight and the staged weight each exceed the
// write threshold. A version conflict (some site voted >= the proposal)
// sends the write down the classic two-round tail — the vote round has
// already happened, so only the put fan-out is added, and correctness
// is exactly Figure 4's. With WithTwoRoundWrites every write uses the
// classic shape.
func (c *Controller) Write(ctx context.Context, idx block.Index, data []byte) (err error) {
	ob := c.env.Obs
	op := c.locks.BeginOp(ob, protocol.OpWrite, idx)
	defer op.End(&err)
	ctx = op.Start(ctx)

	stage := data // the single-round path ships the data in the vote round
	if c.twoRound {
		stage = nil
	}
	var b ballot
	proposed, err := c.collect(ctx, &b, idx, stage)
	if err != nil {
		return err
	}
	votes, weight := b.votes[:b.n], b.weight
	ob.QuorumAssembled(protocol.OpWrite, idx, len(votes), weight)
	if weight <= c.threshold {
		// On the single-round path some sites staged the proposal before
		// the quorum check failed. Abort them so the failure leaves no
		// trace — exactly like a failed Figure 4 vote round, whose data
		// never left the coordinator. A later write may then reuse the
		// proposed version number for different contents.
		if !c.twoRound {
			c.abortStaged(ctx, idx, proposed)
		}
		return fmt.Errorf("voting write of %v: collected weight %d of %d required: %w",
			idx, weight, c.threshold+1, scheme.ErrNoQuorum)
	}
	op.Participants = len(votes)

	if !c.twoRound {
		if maxVote(votes).version < proposed {
			committed, ferr := c.commitFast(ctx, idx, data, b.staged, proposed)
			if committed || ferr != nil {
				return ferr
			}
			// The coordinator's own conditional install was refused: a
			// concurrent remote proposal landed a newer version locally
			// after the prepare round read it. Treat it as the conflict
			// it is and fall back.
		}
		// Conflict: finish with the classic put fan-out. Every staged
		// site is among the voters, so the fan-out's strictly greater
		// version supersedes every staged install.
	}
	return c.finishTwoRound(ctx, idx, data, &b)
}

// abortStaged undoes the staged installs of a failed prepare round:
// each staged site restores the pre-image it retained. The abort is
// broadcast to every remote, not just the sites known to have staged —
// a site whose reply was lost staged the proposal without the
// coordinator learning of it, and sites that never staged treat the
// abort as a no-op. Aborts ride the reliable-delivery channel (Notify,
// like puts). A site that crashed since staging, or whose abort was
// lost, keeps the staged data, and that is an open bug, not a safe
// case (ROADMAP.md item 9, bug C): the coordinator's next write can
// mint the same version for other contents on a quorum that misses
// the site, whose reads then return the failed write for good.
func (c *Controller) abortStaged(ctx context.Context, idx block.Index, proposed block.Version) {
	//relidev:allow transport: abort is best-effort — a site that misses it keeps staged data (an open bug, see above); there is no recovery action to drive from per-site errors
	c.env.Transport.Notify(ctx, c.env.Self.ID(), c.remotes,
		protocol.AbortWriteRequest{Block: idx, Version: proposed})
}

// commitFast completes a single-round write: no site voted a version at
// or above the proposal, so the staged installs *are* the update. The
// coordinator adds its own weight to the remote sites' staged weight,
// aborts cleanly if it cannot clear the write threshold, and otherwise
// installs locally with the same atomic conditional install the remote
// sites performed. committed=false with a nil error means the local
// install lost a race and the caller must fall back to the two-round
// path.
func (c *Controller) commitFast(ctx context.Context, idx block.Index, data []byte, staged int64, proposed block.Version) (committed bool, err error) {
	c.env.Obs.VersionResolved(protocol.OpWrite, idx, proposed)
	installed := c.weight[c.env.Self.ID()] + staged
	if installed <= c.threshold {
		// Enough sites voted but too few staged (comatose voters hold
		// weight back from the install). The local copy is untouched at
		// this point, so aborting the remote stages makes the failure as
		// clean as a failed vote round.
		c.abortStaged(ctx, idx, proposed)
		return true, fmt.Errorf("voting write of %v: update staged at weight %d of %d required: %w",
			idx, installed, c.threshold+1, scheme.ErrNoQuorum)
	}
	ok, err := c.env.Self.StageLocal(idx, data, proposed)
	if err != nil {
		return false, fmt.Errorf("voting write of %v: %w", idx, err)
	}
	return ok, nil
}

// finishTwoRound is the second half of the Figure 4 write: bump the
// maximal version number and send the block to every site in the
// quorum — which repairs all reachable out-of-date copies as a side
// effect. On the fast path's fallback the vote round was the prepare
// round, whose staged installs the strictly greater put version
// supersedes.
func (c *Controller) finishTwoRound(ctx context.Context, idx block.Index, data []byte, b *ballot) error {
	ob, votes := c.env.Obs, b.votes[:b.n]
	newVer := maxVote(votes).version + 1
	// A preceding prepare round — this write's own, or a concurrent
	// coordinator's staged on this replica — may have advanced the local
	// copy past the collected votes; never mint at or below it.
	localVer, err := c.env.Self.VersionLocal(idx)
	if err != nil {
		return fmt.Errorf("voting write of %v: %w", idx, err)
	}
	if newVer <= localVer {
		newVer = localVer + 1
	}
	ob.VersionResolved(protocol.OpWrite, idx, newVer)

	// Send the update to every remote site in the quorum. The quorum
	// intersection property guarantees at least one of them already held
	// the highest version, so after this write every reachable copy is
	// current. Acknowledgements ride on the reliable delivery assumption
	// (Notify): §5.1 charges the update as a single broadcast.
	quorum := make([]protocol.SiteID, 0, len(votes)-1)
	for _, v := range votes {
		if v.from != c.env.Self.ID() {
			quorum = append(quorum, v.from)
		}
	}
	put := protocol.PutRequest{Block: idx, Data: data, Version: newVer}
	// Install locally before the fan-out: even if the write ends up
	// indeterminate, the coordinator then holds the new version, so any
	// later vote quorum (which must intersect this one) sees it and
	// cannot mint the same version number for different data. The
	// conditional install only loses to a concurrent coordinator staging
	// something even newer here, in which case self must not count.
	installed := int64(0)
	if ok, err := c.env.Self.StageLocal(idx, data, newVer); err != nil {
		return fmt.Errorf("voting write of %v: %w", idx, err)
	} else if ok {
		installed = c.weight[c.env.Self.ID()]
	}
	// Read in quorum order, not the map's, so the error returned is the
	// same on every run.
	results := c.env.Transport.Notify(ctx, c.env.Self.ID(), quorum, put)
	for _, id := range quorum {
		res, ok := results[id]
		switch {
		case !ok:
			// No answer: like a lost update, its weight does not count.
		case res.Err == nil:
			installed += c.weight[id]
		case scheme.IsTransportError(res.Err):
			// The site voted but the update did not (provably) arrive —
			// it crashed in between, or the message was lost on an
			// unreliable wire. Its weight must not count toward the
			// installed quorum: a version held by fewer than a write
			// quorum of sites would let a later read quorum miss it.
		case errors.Is(res.Err, site.ErrComatose), errors.Is(res.Err, site.ErrNotOperational):
			// The site voted, then failed or restarted before the update
			// arrived and rejected it. Same treatment as a crash between
			// vote and put: its weight does not count.
		default:
			return fmt.Errorf("voting write of %v at site %v: %w", idx, id, res.Err)
		}
	}
	if installed <= c.threshold {
		// The update landed on fewer sites than a write quorum. The
		// write is indeterminate: some copies hold the new version (a
		// later write will build on it), but the caller must not treat
		// it as committed.
		return fmt.Errorf("voting write of %v: update installed at weight %d of %d required: %w",
			idx, installed, c.threshold+1, scheme.ErrNoQuorum)
	}
	// The §5 conformance checker separates the two write shapes: a
	// two-round write costs one extra put broadcast (multicast) or u-1
	// extra puts (unicast) over a single-round one.
	ob.WriteTwoRound(len(votes))
	return nil
}

// Recover implements the block-level voting recovery policy: nothing.
// Out-of-date blocks are repaired lazily on access; the restarted site is
// immediately operational because quorum intersection protects readers
// from its stale copies, so recovery puts no message on the wire (§5.1).
func (c *Controller) Recover(ctx context.Context) (err error) {
	op := c.locks.BeginRecovery(c.env.Obs)
	defer op.End(&err)
	op.Start(ctx)
	op.Participants = 1
	c.env.Self.SetState(protocol.StateAvailable)
	return nil
}
