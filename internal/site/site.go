// Package site implements a replica server: one of the n server
// processes that together realise the reliable device (§2).
//
// A Replica owns a versioned block store (stable storage), the §3.2 site
// state (failed / comatose / available) and the was-available set of
// the available copy scheme. It serves the inter-site protocol: votes,
// block fetches, block installs, status queries and the recovery
// version-vector exchange. The consistency *policy* lives in the
// scheme packages (voting, availcopy, naiveac); the Replica is the
// mechanism they all share.
package site

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"relidev/internal/block"
	"relidev/internal/protocol"
	"relidev/internal/store"
)

// Protocol-level errors a replica returns to peers.
var (
	// ErrNotOperational is returned when a request reaches a replica
	// whose process is halted. With a correctly configured transport this
	// cannot happen (fail-stop sites do not answer); it guards against
	// harness bugs.
	ErrNotOperational = errors.New("site: replica is not operational")

	// ErrComatose is returned to a write reaching a site that has
	// restarted but not yet repaired: a comatose site must not accept new
	// data before it holds the most recent versions, or it would hold a
	// mix of old and new blocks.
	ErrComatose = errors.New("site: replica is comatose")

	// ErrUnknownRequest is returned for request types the replica does
	// not understand.
	ErrUnknownRequest = errors.New("site: unknown request type")

	// ErrBadSender is returned for a request whose sender is not a
	// possible site id, outside [0, protocol.MaxSites): the wire carries
	// whatever a peer wrote there.
	ErrBadSender = errors.New("site: sender id out of range")
)

// Replica is one site's server process plus its stable storage.
type Replica struct {
	id protocol.SiteID

	mu sync.Mutex
	st store.Store
	// state is written under mu, so (state, wasAvail) read under mu is
	// one pair, and loaded without it by Handle's preamble, which a
	// request on any block runs.
	state    atomic.Int64
	wasAvail protocol.SiteSet

	// prov retains the pre-images staged prepare-writes displaced, so an
	// AbortWriteRequest can restore one if its coordinator's quorum
	// fails. A coordinator sends any abort before its next prepare-write
	// in the same stripe (block.OpStripes), so prov[from] holds one
	// record per stripe: coordinator from's row, allocated at its first
	// stage, with stagers the set of coordinators that have a row. A
	// record with stagedVer 0 is empty; at most one record per block is
	// live, and any newer install of the block empties it. spare is the
	// buffer the next stage copies its payload into, one no record holds
	// (DESIGN.md §12). Guarded by mu.
	prov    [protocol.MaxSites]*provRow
	stagers protocol.SiteSet
	spare   []byte

	// wHook observes was-available transitions (old, new); nil observes
	// nothing. A plain func keeps the site mechanism free of any
	// dependency on the observability layer.
	wHook func(old, next protocol.SiteSet)

	// hHook observes served requests with the caller's context (trace
	// span, op label); nil observes nothing. Same dependency-free shape
	// as wHook; stored under mu, loaded without it like state.
	hHook atomic.Pointer[func(ctx context.Context, from protocol.SiteID, req protocol.Request)]

	// tHook serves telemetry pulls: it returns the site's encoded
	// metrics snapshot, or its trace events, for the aggregation plane
	// (DESIGN.md §16). Same dependency-free shape as wHook — the site
	// mechanism never names the observability types; nil answers pulls
	// with an empty payload.
	tHook func(traces bool) []byte
}

var _ protocol.Handler = (*Replica)(nil)

// Config parameterises a replica.
type Config struct {
	// ID is the site's identity.
	ID protocol.SiteID
	// Store is the site's stable storage.
	Store store.Store
	// InitialState is the state the replica starts in; zero means
	// StateAvailable (a freshly formatted, consistent copy).
	InitialState protocol.SiteState
}

// New builds a replica. The was-available set is loaded from stable
// storage when present; a fresh store starts with the full site set
// unknown, represented as "everyone" only once the scheme initialises it.
func New(cfg Config) (*Replica, error) {
	if cfg.Store == nil {
		return nil, errors.New("site: config requires a store")
	}
	if cfg.ID < 0 || cfg.ID >= protocol.MaxSites {
		return nil, fmt.Errorf("site: id %d out of range [0,%d)", cfg.ID, protocol.MaxSites)
	}
	st := cfg.InitialState
	if st == 0 {
		st = protocol.StateAvailable
	}
	r := &Replica{id: cfg.ID, st: cfg.Store}
	r.state.Store(int64(st))
	meta, err := cfg.Store.LoadMeta()
	if err != nil {
		return nil, fmt.Errorf("load replica meta: %w", err)
	}
	if len(meta) >= 8 {
		r.wasAvail = protocol.SiteSet(binary.LittleEndian.Uint64(meta))
	}
	return r, nil
}

// ID returns the site identity.
func (r *Replica) ID() protocol.SiteID { return r.id }

// Geometry returns the device shape.
func (r *Replica) Geometry() block.Geometry { return r.st.Geometry() }

// State returns the current site state.
func (r *Replica) State() protocol.SiteState { return protocol.SiteState(r.state.Load()) }

// SetState forces the site state. The cluster orchestration uses it for
// fail (-> StateFailed), restart (-> StateComatose) and recovery
// completion (-> StateAvailable).
func (r *Replica) SetState(s protocol.SiteState) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.state.Store(int64(s))
}

// WasAvailable returns the stored was-available set.
func (r *Replica) WasAvailable() protocol.SiteSet {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.wasAvail
}

// SetWasAvailable replaces the was-available set and persists it.
func (r *Replica) SetWasAvailable(w protocol.SiteSet) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.setWasAvailLocked(w)
}

// setWasAvailLocked persists w only when it differs from the stored set:
// most puts carry the W they find, and rewriting it would cost an AC put
// a second record and, under group commit, a second fsync. The W hook
// still sees every update, changed or not.
func (r *Replica) setWasAvailLocked(w protocol.SiteSet) error {
	old := r.wasAvail
	if w != old {
		var meta [8]byte
		binary.LittleEndian.PutUint64(meta[:], uint64(w))
		if err := r.st.SaveMeta(meta[:]); err != nil {
			return fmt.Errorf("persist was-available set: %w", err)
		}
		r.wasAvail = w
	}
	if r.wHook != nil {
		r.wHook(old, w)
	}
	return nil
}

// SetWTransitionHook installs an observer of W_s transitions, invoked
// (old set, new set) at every update site: coordinator resets,
// piggyback merges, and recovery joins. The cluster wires it before
// traffic flows; nil disables observation.
func (r *Replica) SetWTransitionHook(hook func(old, next protocol.SiteSet)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.wHook = hook
}

// SetHandleHook installs an observer of served requests, invoked with
// the caller's context (which carries the trace span and operation
// label) before each request is processed. The observability layer uses
// it to record server-side spans in this site's trace ring; nil
// disables observation.
func (r *Replica) SetHandleHook(hook func(ctx context.Context, from protocol.SiteID, req protocol.Request)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hHook.Store(&hook)
}

// SetTelemetryHook installs the telemetry source answering
// TelemetryPullRequest: the hook is passed the request's Traces flag
// and returns the site's registry snapshot, or its trace events,
// encoded for the wire (obs.Observer.Telemetry). A site process wires
// it before traffic flows; nil makes pulls answer with an empty payload.
func (r *Replica) SetTelemetryHook(hook func(traces bool) []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tHook = hook
}

// Vector returns the replica's full version vector.
func (r *Replica) Vector() block.Vector { return r.st.Vector() }

// VersionSum returns the whole-device currency measure used by the
// recovery selection rules of Figures 5 and 6.
func (r *Replica) VersionSum() uint64 { return r.st.Vector().Sum() }

// ReadLocal reads a block from the site's own store (no network).
func (r *Replica) ReadLocal(idx block.Index) ([]byte, block.Version, error) {
	return r.st.Read(idx)
}

// WriteLocal installs a block in the site's own store (no network).
func (r *Replica) WriteLocal(idx block.Index, data []byte, ver block.Version) error {
	return r.st.Write(idx, data, ver)
}

// StageLocal conditionally installs a block: the write happens only
// when ver strictly exceeds the stored version, and the version check
// and install are atomic with respect to every other staged install on
// this replica. It returns whether the install happened. The fast write
// path uses it for the coordinator's own copy so that two coordinators
// racing on the same proposed version can never both install it — the
// same rule handlePrepareWrite applies for remote proposals.
func (r *Replica) StageLocal(idx block.Index, data []byte, ver block.Version) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stageLocked(idx, data, ver)
}

// provRecord is the pre-image (a buffer it owns) that a staged
// prepare-write of its block displaced. Its row names the staging
// coordinator: aborts are broadcast (the coordinator cannot know which
// sites staged when replies were lost), so a record must only ever be
// reverted by the coordinator that created it — another coordinator's
// abort of the same version number must not undo a committed write.
type provRecord struct {
	block     block.Index
	stagedVer block.Version
	prevVer   block.Version
	prevData  []byte
}

// provRow is one coordinator's records, indexed by stripe.
type provRow [block.OpStripes]provRecord

// liveRecord returns the record retaining block idx's staged pre-image,
// or nil when no record does. Callers hold r.mu.
func (r *Replica) liveRecord(idx block.Index) *provRecord {
	for set := uint64(r.stagers); set != 0; set &= set - 1 {
		rec := &r.prov[bits.TrailingZeros64(set)][block.Stripe(idx)]
		if rec.stagedVer != 0 && rec.block == idx {
			return rec
		}
	}
	return nil
}

// dropRecord empties rec, if any, handing its buffer to the next stage
// when the spare is empty. Callers hold r.mu.
func (r *Replica) dropRecord(rec *provRecord) {
	if rec == nil {
		return
	}
	if r.spare == nil {
		r.spare = rec.prevData
	}
	*rec = provRecord{}
}

// stageLocked is the shared conditional install. Callers hold r.mu.
func (r *Replica) stageLocked(idx block.Index, data []byte, ver block.Version) (bool, error) {
	cur, err := r.st.Version(idx)
	if err != nil {
		return false, err
	}
	if ver <= cur {
		return false, nil
	}
	if err := r.st.Write(idx, data, ver); err != nil {
		return false, err
	}
	// Any successful install supersedes an abortable staged proposal: the
	// retained pre-image is no longer the block's history.
	r.dropRecord(r.liveRecord(idx))
	return true, nil
}

// VersionLocal returns the local version of one block.
func (r *Replica) VersionLocal(idx block.Index) (block.Version, error) {
	return r.st.Version(idx)
}

// Handle implements protocol.Handler: the server side of the inter-site
// protocol.
func (r *Replica) Handle(ctx context.Context, from protocol.SiteID, req protocol.Request) (protocol.Response, error) {
	if from < 0 || from >= protocol.MaxSites {
		return nil, fmt.Errorf("%w: %d", ErrBadSender, int(from))
	}
	state := r.State()
	if state == protocol.StateFailed {
		return nil, ErrNotOperational
	}
	if hook := r.hHook.Load(); hook != nil && *hook != nil {
		// Record the server-side trace span before processing so the
		// remote site's ring holds a causally-linked record even when the
		// request itself fails.
		(*hook)(ctx, from, req)
	}

	switch q := req.(type) {
	case protocol.VoteRequest:
		ver, err := r.st.Version(q.Block)
		if err != nil {
			return nil, err
		}
		return protocol.VoteReply{Version: ver, State: state}, nil

	case protocol.FetchRequest:
		data, ver, err := r.st.Read(q.Block)
		if err != nil {
			return nil, err
		}
		return protocol.FetchReply{Data: data, Version: ver}, nil

	case protocol.PutRequest:
		if state == protocol.StateComatose {
			return nil, ErrComatose
		}
		// Installs are version-conditional: a put that lost a race with a
		// newer install is acknowledged but discarded, so per-site
		// versions only ever move forward. Acknowledging is sound: any
		// read quorum also intersects the quorum that committed the newer
		// version, so it resolves past the superseded write.
		if _, err := r.StageLocal(q.Block, q.Data, q.Version); err != nil {
			return nil, err
		}
		if q.HasW {
			// Receiving a write means this site is among its recipients;
			// the piggybacked set describes the previous write (§3.2's
			// delayed-information relaxation). Union keeps the stored set
			// a superset of every site that may hold newer data, which is
			// safe: recovery may wait for more sites than strictly
			// necessary, never fewer. The read-modify-write must happen
			// under one lock hold: puts for distinct blocks arrive
			// concurrently, and a lost merge could shrink W below the set
			// of sites holding newer data.
			if err := r.applyWasAvailFromWrite(q.WasAvail, from); err != nil {
				return nil, err
			}
		}
		return protocol.PutReply{}, nil

	case protocol.PrepareWriteRequest:
		return r.handlePrepareWrite(state, from, q)

	case protocol.AbortWriteRequest:
		return r.handleAbortWrite(from, q)

	case protocol.StatusRequest:
		r.mu.Lock()
		defer r.mu.Unlock()
		return protocol.StatusReply{
			State:      r.State(),
			WasAvail:   r.wasAvail,
			VersionSum: r.st.Vector().Sum(),
		}, nil

	case protocol.RecoveryRequest:
		return r.handleRecovery(from, q)

	case protocol.TelemetryPullRequest:
		// Comatose sites answer too: the aggregation plane should see a
		// degraded site's telemetry, not a hole — only a failed site (which
		// the transport already refuses to reach) is invisible.
		r.mu.Lock()
		hook := r.tHook
		r.mu.Unlock()
		if hook == nil {
			return protocol.TelemetryPullReply{}, nil
		}
		return protocol.TelemetryPullReply{Snap: hook(q.Traces)}, nil

	default:
		return nil, fmt.Errorf("%w: %T", ErrUnknownRequest, req)
	}
}

// handlePrepareWrite serves the fast write path's combined
// vote-and-stage request (DESIGN.md §12). The reply always carries the
// site's vote — the version *before* any install, plus state, exactly
// like a VoteReply — so the coordinator's quorum arithmetic is
// unchanged. The proposal is installed only when the site may accept
// data (available) and the proposed version strictly exceeds the local
// one.
//
// The version check and the install happen under one r.mu hold: two
// coordinators proposing the same version concurrently must not both
// stage it here, or each could assemble a disjoint "installed" quorum
// for different contents under one version number. With the check
// atomic, any two staged write quorums intersect at a site that
// accepted exactly one of the proposals, and the losing coordinator
// sees a vote >= its proposal and falls back to the two-round path.
func (r *Replica) handlePrepareWrite(state protocol.SiteState, from protocol.SiteID, q protocol.PrepareWriteRequest) (protocol.Response, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ver, err := r.st.Version(q.Block)
	if err != nil {
		return nil, err
	}
	reply := protocol.PrepareWriteReply{Version: ver, State: state}
	// A comatose site votes (its version numbers are genuine) but must
	// not accept data, mirroring how it answers VoteRequest yet rejects
	// PutRequest. And a proposal no newer than the local copy only
	// collects the vote.
	if state == protocol.StateComatose || q.Version <= ver {
		return reply, nil
	}
	// Stage a copy of the payload (it may alias the transport's buffer)
	// by exchanging it for the block's own buffer, which becomes the
	// pre-image a failed quorum's abort swaps back.
	buf := append(r.spare[:0], q.Data...)
	r.spare = nil
	prev, err := store.Swap(r.st, q.Block, buf, q.Version)
	if prev == nil {
		// Nothing installed: the block and any earlier stage's record
		// stand as they were, and the buffer is still ours.
		r.spare = buf
		return nil, err
	}
	// Installed, even if the store then failed to make it durable: the
	// record lets an abort undo it either way. It supersedes the block's
	// earlier record and this coordinator's previous record in the
	// stripe, whose op is over, so no abort can come for it (DESIGN.md
	// §12). The first dropped record's buffer becomes the spare.
	r.dropRecord(r.liveRecord(q.Block))
	if r.prov[from] == nil {
		r.prov[from] = new(provRow)
		r.stagers = r.stagers.Add(from)
	}
	rec := &r.prov[from][block.Stripe(q.Block)]
	r.dropRecord(rec)
	*rec = provRecord{block: q.Block, stagedVer: q.Version, prevVer: ver, prevData: prev}
	if err != nil {
		return nil, err
	}
	reply.Staged = true
	return reply, nil
}

// handleAbortWrite reverts a staged prepare-write whose coordinator
// failed to assemble a quorum: if the block still holds exactly the
// version that coordinator staged here, the retained pre-image is
// restored. A proposal that was never staged here, that somebody else
// staged, that a newer install has superseded, or that this
// coordinator's next prepare-write in the stripe has overtaken needs no
// undoing — the abort is then a successful no-op.
func (r *Replica) handleAbortWrite(from protocol.SiteID, q protocol.AbortWriteRequest) (protocol.Response, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	row := r.prov[from]
	if row == nil {
		return protocol.AbortWriteReply{}, nil
	}
	rec := &row[block.Stripe(q.Block)]
	if rec.stagedVer == 0 || rec.block != q.Block || rec.stagedVer != q.Version {
		return protocol.AbortWriteReply{}, nil
	}
	cur, err := r.st.Version(q.Block)
	if err != nil {
		return nil, err
	}
	if cur != q.Version {
		// A newer install landed without clearing the record (defensive;
		// stageLocked clears it). Nothing to restore.
		r.dropRecord(rec)
		return protocol.AbortWriteReply{}, nil
	}
	staged, err := store.Swap(r.st, q.Block, rec.prevData, rec.prevVer)
	if staged == nil {
		return nil, err
	}
	*rec = provRecord{}
	r.spare = staged
	if err != nil {
		return nil, err
	}
	return protocol.AbortWriteReply{}, nil
}

func (r *Replica) applyWasAvailFromWrite(piggyback protocol.SiteSet, writer protocol.SiteID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.setWasAvailLocked(r.wasAvail.Union(piggyback).Add(r.id).Add(writer))
}

// recoveryBudgetBytes is the payload budget of one recovery page: the
// 1 MiB SegStore's replay buffer already moves at a time, far under
// rpcnet's frame limit, and large enough that per-page round trips
// vanish beside the transfer.
const recoveryBudgetBytes = 1 << 20

// RecoveryBudget returns how many block copies one page of the
// recovery exchange carries: the byte budget over the block size, at
// least one. Derived from the geometry every site of a device shares,
// so requester and donor arrive at the same figure.
func (r *Replica) RecoveryBudget() int {
	return max(1, recoveryBudgetBytes/r.st.Geometry().BlockSize)
}

// handleRecovery serves one page of the version-vector exchange of
// Figure 5: compare the requester's vector with ours and return the
// correct vector plus copies of the blocks the requester is missing,
// from index q.Cont on, setting More/Next when further pages remain.
// The page never exceeds RecoveryBudget — a requested MaxBlocks
// that is non-positive or larger is clamped to it — so no peer can make
// a donor build an unbounded reply. With JoinW (the available copy
// scheme, first page only) the requester is folded into our
// was-available set — "all of those sites which have repaired from
// site s" belong to W_s.
func (r *Replica) handleRecovery(from protocol.SiteID, q protocol.RecoveryRequest) (protocol.Response, error) {
	mine := r.st.Vector()
	limit := r.RecoveryBudget()
	if q.MaxBlocks > 0 && q.MaxBlocks < limit {
		limit = q.MaxBlocks
	}
	// A requester with a shorter history than ours may also hold blocks
	// *newer* than ours only if it was available more recently, in which
	// case the scheme selected the wrong source; the scheme layers
	// guarantee the source dominates, and the property tests check it.
	reply := protocol.RecoveryReply{Vector: mine}
	for _, idx := range q.Vector.StaleAgainst(mine) {
		// StaleAgainst returns ascending indices, so the resume point is
		// simply the first index past this page.
		if idx < q.Cont {
			continue
		}
		if len(reply.Blocks) == limit {
			reply.More = true
			reply.Next = idx
			break
		}
		data, ver, err := r.st.Read(idx)
		if err != nil {
			return nil, fmt.Errorf("recovery read: %w", err)
		}
		reply.Blocks = append(reply.Blocks, protocol.BlockCopy{Index: idx, Data: data, Version: ver})
	}
	if q.JoinW {
		r.mu.Lock()
		err := r.setWasAvailLocked(r.wasAvail.Add(r.id).Add(from))
		reply.WasAvail = r.wasAvail
		r.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	return reply, nil
}

// ApplyRepair installs a page of block copies received from a peer in
// the recovery exchange ("repair those blocks that differ in v'", Figure
// 5) by the rule of remote writes (stageLocked), for the whole page
// under one r.mu hold: a copy installs only if it is newer than the
// stored version and any earlier copy of its block in the page, exactly
// as per-block StageLocal calls would. The survivors reach the store as
// one store.WriteRun, and their staged pre-images are dropped. A copy
// can never move a version backwards or tear data, whichever of it and
// a racing foreground write carries the higher version wins, and a
// recovery stream cut short leaves a version-monotone partial image. It
// takes no OpLocks — foreground operations wait for at most one page
// install — and returns how many blocks installed (stale copies are
// skipped, not errors).
func (r *Replica) ApplyRepair(blocks []protocol.BlockCopy) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	run := make([]store.Install, 0, len(blocks))
	ascending := true
	for i, c := range blocks {
		floor, err := r.st.Version(c.Index)
		if err != nil {
			return 0, fmt.Errorf("apply repair block %v: %w", c.Index, err)
		}
		if ascending = ascending && (i == 0 || c.Index > blocks[i-1].Index); !ascending {
			// Pages ascend; past a step back the block may already be in
			// the run, and the copy must beat that install too.
			for _, in := range run {
				if in.Index == c.Index {
					floor = max(floor, in.Version)
				}
			}
		}
		if c.Version > floor {
			run = append(run, store.Install{Index: c.Index, Data: c.Data, Version: c.Version})
		}
	}
	if len(run) == 0 {
		return 0, nil
	}
	if err := store.WriteRun(r.st, run); err != nil {
		return 0, fmt.Errorf("apply repair page of %d blocks: %w", len(run), err)
	}
	for _, in := range run {
		r.dropRecord(r.liveRecord(in.Index))
	}
	return len(run), nil
}

// Store exposes the underlying stable storage (examples and tests only).
func (r *Replica) Store() store.Store { return r.st }
