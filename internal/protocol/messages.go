package protocol

import (
	"encoding/gob"

	"relidev/internal/block"
)

// VoteRequest asks a site for its vote on one block (Figures 3 and 4):
// the site answers with the block's version number and the weight
// assigned to the site.
type VoteRequest struct {
	Block block.Index
}

// Kind implements Request.
func (VoteRequest) Kind() string { return "vote" }

// VoteReply is a site's vote.
type VoteReply struct {
	Version block.Version
	// Weight is the site's voting weight in thousandths, so that the
	// even-n tie-breaking adjustment of §4.1 (one copy's weight nudged by
	// a small quantity) is representable exactly.
	Weight int64
	State  SiteState
	// Witness marks a site that votes with version numbers but stores no
	// block data ([10]); witnesses cannot serve fetches or repairs.
	Witness bool
}

// RespKind implements Response.
func (VoteReply) RespKind() string { return "vote-reply" }

// FetchRequest asks for a copy of one block (voting read repair, Figure
// 3: request_block(t, k, B)).
type FetchRequest struct {
	Block block.Index
}

// Kind implements Request.
func (FetchRequest) Kind() string { return "fetch" }

// FetchReply returns the block contents.
type FetchReply struct {
	Data    []byte
	Version block.Version
}

// RespKind implements Response.
func (FetchReply) RespKind() string { return "fetch-reply" }

// PutRequest installs a block at a new version on the receiving site
// (voting: send_block(Q, k, B, v); available copy: the write broadcast).
//
// For the available copy schemes the request piggybacks the writer's
// current was-available set; recipients replace their stored set with it
// (§3.2: the information may be delayed by one write, which is how the
// atomic broadcast assumption is relaxed).
type PutRequest struct {
	Block   block.Index
	Data    []byte
	Version block.Version
	// HasW indicates WasAvail is meaningful (available copy scheme only).
	HasW     bool
	WasAvail SiteSet
	// ReplaceW makes the receiver replace its stored was-available set
	// with WasAvail (plus itself and the writer) instead of merging. Set
	// only by the immediate-W ablation, where the coordinator knows the
	// exact recipient set.
	ReplaceW bool
}

// Kind implements Request.
func (PutRequest) Kind() string { return "put" }

// PutReply acknowledges a PutRequest.
type PutReply struct{}

// RespKind implements Response.
func (PutReply) RespKind() string { return "put-reply" }

// PrepareWriteRequest is the combined single-round write of the fast
// write path (DESIGN.md §12): it carries the coordinator's proposed
// version *and* the block data in one message, collapsing the Figure 4
// vote round and put fan-out into a single quorum round trip. The
// recipient answers with its vote (exactly the VoteReply fields) and
// provisionally installs the proposal when — and only when — the
// proposed version strictly exceeds its local one, so no site can ever
// hold two different contents under the same version number.
type PrepareWriteRequest struct {
	Block block.Index
	Data  []byte
	// Version is the coordinator's proposal: its local version + 1.
	Version block.Version
}

// Kind implements Request.
func (PrepareWriteRequest) Kind() string { return "prepare-write" }

// PrepareWriteReply is a site's combined vote-and-stage answer.
type PrepareWriteReply struct {
	// Version is the responder's version *before* any install: its vote.
	Version block.Version
	Weight  int64
	State   SiteState
	Witness bool
	// Staged reports that the proposal was installed. Comatose sites and
	// witnesses vote without staging, and a proposal at or below the
	// local version is refused (the coordinator falls back to the
	// two-round path).
	Staged bool
}

// RespKind implements Response.
func (PrepareWriteReply) RespKind() string { return "prepare-write-reply" }

// AbortWriteRequest undoes a staged prepare-write that failed to gather
// a quorum: the recipient restores the pre-image it retained when it
// staged version Version, provided nothing newer has been installed
// since. Without the abort, a failed write would leave data behind that
// a later write's version number could collide with — classic voting's
// failed vote round leaves no trace, and the fast path must match that.
type AbortWriteRequest struct {
	Block block.Index
	// Version is the staged proposal to revert.
	Version block.Version
}

// Kind implements Request.
func (AbortWriteRequest) Kind() string { return "abort-write" }

// AbortWriteReply acknowledges an AbortWriteRequest. An abort of a
// proposal that was never staged, or that a newer install has already
// superseded, succeeds as a no-op.
type AbortWriteReply struct{}

// RespKind implements Response.
func (AbortWriteReply) RespKind() string { return "abort-write-reply" }

// StatusRequest asks a site for its recovery-relevant state. A recovering
// site broadcasts it to learn which sites are up, their states, their
// was-available sets and how current they are (§3.2, §5.1).
type StatusRequest struct{}

// Kind implements Request.
func (StatusRequest) Kind() string { return "status" }

// StatusReply describes the responding site.
type StatusReply struct {
	State SiteState
	// WasAvail is the responder's stored was-available set (AC only).
	WasAvail SiteSet
	// VersionSum is the responder's whole-device currency measure
	// (Figures 5-6 compare sites by version(t)).
	VersionSum uint64
	// Witness marks a voting witness; witnesses cannot serve as repair
	// sources since they hold no data.
	Witness bool
}

// RespKind implements Response.
func (StatusReply) RespKind() string { return "status-reply" }

// RecoveryRequest is one page of the version-vector exchange of Figure
// 5: the recovering site s sends its vector v to the repair source t.
// The request also carries s's identity so that t can fold s into its
// was-available set (send(t, W_s) folded into the same high-level
// exchange; §5.1 counts a repair that fits one page as one request +
// one response).
type RecoveryRequest struct {
	Vector block.Vector
	// JoinW asks the responder to add the sender to its was-available
	// set (available copy scheme only, first page only).
	JoinW bool
	// MaxBlocks bounds the number of block copies per reply: the
	// responder returns at most that many stale blocks with index >=
	// Cont and sets RecoveryReply.More when further pages remain. The
	// responder clamps it to its own page budget; a non-positive value
	// asks for that budget.
	MaxBlocks int
	// Cont is the continuation token: the first block index the
	// responder should consider. Zero on the first page.
	Cont block.Index
}

// Kind implements Request.
func (RecoveryRequest) Kind() string { return "recovery" }

// RecoveryReply returns the correct vector v' and one page of copies of
// the blocks that changed while the requester was down.
type RecoveryReply struct {
	Vector block.Vector
	Blocks []BlockCopy
	// WasAvail is the responder's was-available set after the join, so
	// the recovering site starts from the merged set.
	WasAvail SiteSet
	// More reports further stale blocks beyond this reply; the requester
	// continues with Cont = Next.
	More bool
	// Next is the continuation token for the next page when More is set.
	Next block.Index
}

// RespKind implements Response.
func (RecoveryReply) RespKind() string { return "recovery-reply" }

// TelemetryPullRequest asks a site for its metrics registry snapshot:
// the cross-site aggregation plane (DESIGN.md §16) broadcasts it from a
// designated aggregator to build the cluster-wide metrics view. The
// request is deliberately empty — the reply carries everything — so a
// scrape costs one transmission each way, the cheapest exchange the
// transport can price.
type TelemetryPullRequest struct{}

// Kind implements Request.
func (TelemetryPullRequest) Kind() string { return "telemetry-pull" }

// TelemetryPullReply carries the responding site's registry snapshot as
// encoded JSON. The protocol layer cannot name the observability types
// (obs imports protocol), so the snapshot crosses the wire opaque; the
// aggregator decodes it with obs.DecodeSnapshot. A site with no
// telemetry hook installed answers with an empty Snap.
type TelemetryPullReply struct {
	Snap []byte
}

// RespKind implements Response.
func (TelemetryPullReply) RespKind() string { return "telemetry-pull-reply" }

// RegisterGob registers all protocol messages with encoding/gob so that
// they can travel as interface values in a gob stream. Nothing in the
// program's data path does that any more — rpcnet frames messages with
// the binary codec in codec.go — but benchmark/ladder.go calls this for
// its ladder.codec_* rung, which therefore keeps measuring gob until a
// benchmark change re-points it at AppendRequest/DecodeRequest. Calling
// it again is harmless: gob permits an identical re-registration.
func RegisterGob() {
	gob.Register(VoteRequest{})
	gob.Register(VoteReply{})
	gob.Register(FetchRequest{})
	gob.Register(FetchReply{})
	gob.Register(PutRequest{})
	gob.Register(PutReply{})
	gob.Register(PrepareWriteRequest{})
	gob.Register(PrepareWriteReply{})
	gob.Register(AbortWriteRequest{})
	gob.Register(AbortWriteReply{})
	gob.Register(StatusRequest{})
	gob.Register(StatusReply{})
	gob.Register(RecoveryRequest{})
	gob.Register(RecoveryReply{})
	gob.Register(TelemetryPullRequest{})
	gob.Register(TelemetryPullReply{})
}
