// Package protocol defines the inter-site protocol of the reliable
// device: site identities and states, the was-available sets of the
// available copy scheme, the request/response messages exchanged between
// sites, and the Transport abstraction the consistency algorithms run
// over.
//
// Two transports implement the interface: simnet (in-process simulated
// network, with the exact high-level transmission accounting of paper §5)
// and rpcnet (TCP between real server processes, one length-prefixed
// binary frame per message — codec.go defines the frame body).
package protocol

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"relidev/internal/block"
)

// SiteID identifies one of the n sites holding a copy of the device.
// Sites are numbered 0..n-1.
type SiteID int

// String implements fmt.Stringer.
func (s SiteID) String() string { return "site" + strconv.Itoa(int(s)) }

// SiteState is the per-site state of §3.2: a failed site has halted; a
// comatose site has restarted but does not yet know whether it holds the
// most recent version of the blocks; an available site is known current.
type SiteState int

// Site states. Values start at one so that the zero value is invalid.
const (
	StateFailed SiteState = iota + 1
	StateComatose
	StateAvailable
)

// String implements fmt.Stringer.
func (s SiteState) String() string {
	switch s {
	case StateFailed:
		return "failed"
	case StateComatose:
		return "comatose"
	case StateAvailable:
		return "available"
	default:
		return "invalid(" + strconv.Itoa(int(s)) + ")"
	}
}

// MaxSites bounds the number of sites so that SiteSet fits a machine
// word. The paper's analysis covers n <= 8; 64 leaves ample headroom.
const MaxSites = 64

// OpStripes is the number of stripes a coordinator serialises its block
// operations in (scheme.OpLocks): block idx belongs to stripe
// Stripe(idx), and two operations of one coordinator in one stripe
// never overlap. A voting coordinator's prepare-write and any abort of
// it belong to one such operation, which gives replicas a contract to
// rely on: a coordinator has at most one prepare-write in flight per
// (site, stripe), and it sends any abort of a stage before its next
// prepare-write in that stripe. A replica therefore keeps a staged
// pre-image per (coordinator, stripe), not per block (DESIGN.md §12).
const OpStripes = 64

// Stripe returns the stripe of block idx, in [0, OpStripes).
func Stripe(idx block.Index) uint64 { return uint64(idx) % OpStripes }

// SiteSet is a set of sites, used for quorums and was-available sets.
type SiteSet uint64

// NewSiteSet returns the set containing the given sites.
func NewSiteSet(ids ...SiteID) SiteSet {
	var s SiteSet
	for _, id := range ids {
		s = s.Add(id)
	}
	return s
}

// FullSet returns the set {0, .., n-1}.
func FullSet(n int) SiteSet {
	if n <= 0 {
		return 0
	}
	if n >= MaxSites {
		return ^SiteSet(0)
	}
	return SiteSet(1)<<uint(n) - 1
}

// Add returns the set with id added.
func (s SiteSet) Add(id SiteID) SiteSet {
	if id < 0 || id >= MaxSites {
		return s
	}
	return s | 1<<uint(id)
}

// Has reports whether id is in the set.
func (s SiteSet) Has(id SiteID) bool {
	return id >= 0 && id < MaxSites && s&(1<<uint(id)) != 0
}

// Union returns the union of the two sets.
func (s SiteSet) Union(other SiteSet) SiteSet { return s | other }

// SubsetOf reports whether every member of s is in other.
func (s SiteSet) SubsetOf(other SiteSet) bool { return s&^other == 0 }

// Len returns the number of members.
func (s SiteSet) Len() int { return bits.OnesCount64(uint64(s)) }

// Empty reports whether the set has no members.
func (s SiteSet) Empty() bool { return s == 0 }

// Members returns the members in increasing order.
func (s SiteSet) Members() []SiteID {
	out := make([]SiteID, 0, s.Len())
	for v := uint64(s); v != 0; v &= v - 1 {
		out = append(out, SiteID(bits.TrailingZeros64(v)))
	}
	return out
}

// String implements fmt.Stringer.
func (s SiteSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, id := range s.Members() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(id)))
	}
	b.WriteByte('}')
	return b.String()
}

// Transport errors. A transport returns ErrSiteDown when the destination
// site has failed (fail-stop: a crashed process simply does not answer)
// and ErrSiteUnreachable when a (test-injected) partition separates the
// caller from an otherwise operational site. ErrTransient reports a
// single communication failure against a peer that is *not* suspected
// down: a stale connection, a lost message, an injected timeout. The
// distinction matters to the available copy scheme, whose was-available
// sets must shrink only on genuine fail-stop failures — a transient
// hiccup that ejected a live site from W_s would mis-state which sites
// hold the most recent write.
var (
	ErrSiteDown        = errors.New("protocol: destination site is down")
	ErrSiteUnreachable = errors.New("protocol: destination site is unreachable")
	ErrTransient       = errors.New("protocol: transient communication failure")

	// ErrSevered marks a failure of an exchange that was already
	// established when it broke: the peer accepted the connection and
	// then the stream died mid-request. Transports wrap it *alongside*
	// ErrTransient or ErrSiteDown (it refines, not replaces, the
	// severity classification). Unlike a failed dial, the request may
	// have reached the peer and been applied there, so the exchange's
	// outcome is unknown rather than known-failed.
	ErrSevered = errors.New("protocol: established exchange severed mid-stream")

	// ErrInjected marks every error the fault-injecting decorator
	// (faultnet) produces, wrapped alongside the sentinel the fault
	// imitates, so tests and the chaos engine can tell injected faults
	// from organic ones.
	ErrInjected = errors.New("faultnet: injected fault")
	// ErrRemote marks an error produced by the remote handler itself,
	// as opposed to a transport failure: the call reached the peer and
	// was answered. scheme.IsTransportError(err) is false for it by
	// design — under the paper's fail-stop model (§3) only a *missing*
	// answer may be treated as a site failure, never a delivered one.
	ErrRemote = errors.New("rpcnet: remote error")
)

// Request is the interface implemented by all protocol request messages.
// Its unexported methods seal the set to this package and make each
// request carry its frame encoding (codec.go) and its size (wiresize.go):
// a request missing either does not compile.
type Request interface {
	// Kind names the request for logging and traffic accounting.
	Kind() string
	// appendRequest appends the request's fields to b and returns its
	// kind tag.
	appendRequest(b []byte) (tag byte, out []byte)
	sized
}

// Response is the interface implemented by all protocol responses,
// sealed the same way. Its append method has another name than a
// request's, so a request cannot pass as a response.
type Response interface {
	// appendResponse appends the response's fields to b and returns its
	// kind tag.
	appendResponse(b []byte) (tag byte, out []byte)
	sized
}

// Result pairs a response with a per-destination error for broadcasts.
type Result struct {
	Resp Response
	Err  error
}

// Handler is implemented by a site's server side: it processes one
// request from a peer and produces a response. The context carries the
// caller's operation label and trace span (WithOp, WithSpan), so a
// handler can record causally-linked trace events; it is not used for
// cancellation — a site that accepted a request always answers it.
//
// The byte payloads of req (PutRequest.Data, PrepareWriteRequest.Data)
// are valid only until Handle returns: rpcnet's server decodes them in
// place over its per-connection read buffer and reuses that buffer for
// the next request. A handler that needs the bytes afterwards must copy
// them; handing them to a store.Store is enough, every store copies or
// finishes writing before its Write returns. The same holds for ctx:
// rpcnet's server re-points one span node per connection (SpanNode) for
// each request, so a handler must not keep ctx, or a context derived
// from it, past its return.
type Handler interface {
	Handle(ctx context.Context, from SiteID, req Request) (Response, error)
}

// Transport moves protocol messages between sites. Implementations count
// high-level transmissions per §5: in a multi-cast network a broadcast is
// one transmission regardless of the number of destinations; with unique
// addressing it is one transmission per destination. Responses are always
// individually addressed.
//
// As for a Handler, a call's ctx is valid only until the call returns:
// the metering decorator (obs) re-points a span node of the operation's
// scope for each call, so an implementation must not keep ctx, or a
// context derived from it, past its return — a goroutine the call
// starts is joined before it returns.
type Transport interface {
	// Call sends req from site `from` to site `to` and waits for the
	// response. Charged as two transmissions (request + response), which
	// is how §5 counts the recovery version-vector exchange.
	Call(ctx context.Context, from, to SiteID, req Request) (Response, error)

	// Fetch pulls data from one site, charged as a single transmission:
	// only the transfer itself is a high-level message (§5.1 charges a
	// voting read repair exactly one extra message).
	Fetch(ctx context.Context, from, to SiteID, req Request) (Response, error)

	// Broadcast sends req from site `from` to every site in dests and
	// collects the per-site results. Sites that are down appear in the
	// result map with ErrSiteDown and contribute no reply traffic.
	// Charged as one transmission (multicast networks) or one per
	// destination (unique addressing), plus one per reply.
	Broadcast(ctx context.Context, from SiteID, dests []SiteID, req Request) map[SiteID]Result

	// Notify sends req to every site in dests without charging for
	// replies: per-site acknowledgements are covered by the reliable
	// delivery assumption and are not high-level transmissions. Handler
	// errors are still reported for correctness.
	Notify(ctx context.Context, from SiteID, dests []SiteID, req Request) map[SiteID]Result
}

// BlockCopy carries one block during repair.
type BlockCopy struct {
	Index   block.Index
	Data    []byte
	Version block.Version
}

// String implements fmt.Stringer.
func (c BlockCopy) String() string {
	return fmt.Sprintf("%v@%v(%dB)", c.Index, c.Version, len(c.Data))
}
