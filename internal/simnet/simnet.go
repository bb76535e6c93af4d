// Package simnet is an in-process network connecting replica sites.
//
// It provides the communication model of the paper (§2, §5): reliable
// message delivery, no partitions, fail-stop sites that simply do not
// answer, and — crucially — exact accounting of *high-level
// transmissions* in both network flavours analysed in §5:
//
//   - Multicast: one transmission reaches any number of destinations;
//     each individually addressed reply is one transmission.
//   - Unique addressing: one transmission per destination, whether or not
//     the destination is up (the sender cannot know).
//
// The accounting deliberately mirrors the paper's conventions: low-level
// acknowledgements guaranteed by the reliable-delivery assumption are not
// counted (a naive available copy write is exactly one transmission), and
// a lazy block fetch during a voting read costs one transmission — only
// the block transfer itself is charged (§5.1: "at most U_V+1 if the local
// version is not up to date").
package simnet

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"relidev/internal/protocol"
)

// Mode selects the §5 network flavour.
type Mode int

// Network modes.
const (
	// Multicast models §5.1: a single transmission may be received by
	// several sites.
	Multicast Mode = iota + 1
	// Unicast models §5.2: transmissions are addressed to an individual
	// site, so a logical broadcast costs one transmission per destination.
	Unicast
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Multicast:
		return "multicast"
	case Unicast:
		return "unicast"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Stats is a snapshot of the high-level transmission counters defined
// in §5, plus the byte-level alternative metric §5 mentions ("it is
// possible to instead focus on the sizes of the messages").
//
// Snapshot semantics: counters live in one bank swapped out atomically
// by ResetStats, so a snapshot never mixes pre- and post-reset values.
// Within a bank, a snapshot taken while deliveries are in flight is
// *conservative*: Transmissions is incremented first on every charge
// and loaded last, from every sender's shard, so Transmissions >=
// Requests + Replies holds in every snapshot. Quiesce the network for
// exact totals; an operation in flight across a ResetStats may split
// its charges between the old and new bank.
type Stats struct {
	// Transmissions is the total number of high-level transmissions.
	Transmissions uint64
	// Requests counts transmissions that carried a request.
	Requests uint64
	// Replies counts transmissions that carried a reply.
	Replies uint64
	// Bytes is the total estimated wire volume of all transmissions. A
	// multicast transmission's payload is charged once regardless of how
	// many sites receive it; unique addressing charges per destination.
	Bytes uint64
	// ByKind breaks down request transmissions by request kind.
	ByKind map[string]uint64
	// ByOp breaks down transmissions by the §5 operation class that
	// generated them, for traffic labelled via protocol.WithOp (keys
	// are the protocol.Op* constants, plus "other" for unrecognized
	// labels). Unlabelled traffic appears only in the totals.
	ByOp map[string]OpStats
}

// OpStats is the per-operation-class slice of the traffic counters.
type OpStats struct {
	Transmissions uint64
	Requests      uint64
	Replies       uint64
}

// opClasses are the attribution buckets of Stats.ByOp; unlabelled
// traffic (empty CtxOp) is not attributed at all.
var opClasses = [...]string{protocol.OpWrite, protocol.OpRead, protocol.OpRecovery, "other"}

// opClassIndex maps a context operation label to its bucket, or -1 for
// unlabelled traffic.
func opClassIndex(op string) int {
	switch op {
	case "":
		return -1
	case protocol.OpWrite:
		return 0
	case protocol.OpRead:
		return 1
	case protocol.OpRecovery:
		return 2
	default:
		return len(opClasses) - 1
	}
}

// opCounters is one ByOp bucket's live counters.
type opCounters struct {
	transmissions atomic.Uint64
	requests      atomic.Uint64
	replies       atomic.Uint64
}

// counterShard holds the charges of the legs one site sends, requests
// and replies, padded to cache lines of its own.
type counterShard struct {
	transmissions atomic.Uint64
	requests      atomic.Uint64
	replies       atomic.Uint64
	bytes         atomic.Uint64
	byOp          [len(opClasses)]opCounters
	// byKind stays a map under its own narrow mutex: kinds are few and
	// the map is touched once per logical broadcast, not per delivery.
	kindMu sync.Mutex
	byKind map[string]uint64
	_      [256 - (4+3*len(opClasses))*8 - 16]byte
}

// counterBank holds one epoch of traffic counters. ResetStats swaps
// the whole bank, so Stats never observes a half-zeroed state.
type counterBank [protocol.MaxSites]counterShard

// Network connects up to protocol.MaxSites sites. The zero value is not
// usable; use New. Faults beyond fail-stop, partitions among them, are
// injected through a FaultRule (the faultnet decorator installs one).
// A leg takes no lock and writes only its sender's counter shard
// (DESIGN.md §7).
type Network struct {
	mode     Mode // fixed at New
	handlers [protocol.MaxSites]atomic.Pointer[protocol.Handler]
	up       [protocol.MaxSites]atomic.Bool

	// Traffic counters are contention-free atomics grouped into a bank
	// of per-sender shards: metering sits on every message of the data
	// path and must not serialize concurrent deliveries, and ResetStats
	// swaps the bank pointer instead of zeroing counters one by one
	// (zeroing in place lets a concurrent Stats observe a torn
	// half-reset snapshot).
	bank atomic.Pointer[counterBank]

	// faultRule, when set, is consulted once per remote delivery (after
	// routing, before the handler) and may fail or degrade it. It is the
	// injection point the faultnet decorator uses: deciding inside the
	// fan-out keeps faults per-destination while the §5 accounting of
	// the enclosing broadcast stays exact.
	faultRule atomic.Pointer[FaultRule]
}

// FaultDecision tells the network what to do with one delivery.
type FaultDecision int

// Fault decisions.
const (
	// Deliver proceeds normally.
	Deliver FaultDecision = iota
	// DropRequest fails the delivery without invoking the destination
	// handler: the request was lost on the wire.
	DropRequest
	// DropReply invokes the destination handler (the request arrived and
	// took effect) but discards its response: the caller cannot tell
	// whether the request was processed. No reply traffic is charged.
	DropReply
)

// FaultRule decides the fate of one remote delivery. It runs on the
// delivering goroutine, so it may sleep to model added latency before
// returning Deliver. The returned error is reported to the caller for
// DropRequest and DropReply.
type FaultRule func(from, to protocol.SiteID, req protocol.Request) (FaultDecision, error)

var _ protocol.Transport = (*Network)(nil)

// New returns an empty network in the given mode.
func New(mode Mode) *Network {
	n := &Network{mode: mode}
	n.bank.Store(new(counterBank))
	return n
}

// Mode returns the network flavour.
func (n *Network) Mode() Mode { return n.mode }

// errBadSender fails every leg from an id that cannot name a site.
var errBadSender = errors.New("simnet: sender id out of range")

// validSite reports whether id can name a site, in [0, MaxSites).
func validSite(id protocol.SiteID) bool { return id >= 0 && id < protocol.MaxSites }

// mustBeSite panics with a message naming id unless it can name a site.
func mustBeSite(op string, id protocol.SiteID) {
	if !validSite(id) {
		panic(fmt.Sprintf("simnet: %s: site id %d out of range [0,%d)", op, int(id), protocol.MaxSites))
	}
}

// Attach registers the handler serving site id and marks the site up.
// It panics for an id outside [0, protocol.MaxSites).
func (n *Network) Attach(id protocol.SiteID, h protocol.Handler) {
	mustBeSite("Attach", id)
	n.handlers[id].Store(&h)
	n.up[id].Store(true)
}

// SetUp marks a site's process up or down. A down site neither receives
// requests nor produces replies (fail-stop). It panics for an id
// outside [0, protocol.MaxSites).
func (n *Network) SetUp(id protocol.SiteID, up bool) {
	mustBeSite("SetUp", id)
	n.up[id].Store(up)
}

// SetFaultRule installs (or, with nil, removes) the per-delivery fault
// rule. Only test harnesses and the faultnet decorator call this; no
// production path injects faults.
func (n *Network) SetFaultRule(rule FaultRule) { n.faultRule.Store(&rule) }

// applyFault consults the fault rule for one remote delivery. It
// reports whether the handler should still run and the injected error,
// if any.
func (n *Network) applyFault(from, to protocol.SiteID, req protocol.Request) (deliver bool, err error) {
	rule := n.faultRule.Load()
	if rule == nil || *rule == nil {
		return true, nil
	}
	switch dec, ferr := (*rule)(from, to, req); dec {
	case DropRequest:
		return false, ferr
	case DropReply:
		return true, ferr
	default:
		return true, nil
	}
}

// Stats returns a snapshot of the traffic counters. See the Stats type
// for the exact mid-flight guarantees: per-snapshot Transmissions >=
// Requests + Replies always holds (every charge bumps Transmissions
// first, and the snapshot loads it last), and a snapshot never mixes
// counts from before and after a ResetStats.
func (n *Network) Stats() Stats {
	b := n.bank.Load()
	out := Stats{ByKind: make(map[string]uint64), ByOp: make(map[string]OpStats, len(opClasses))}
	var byOp [len(opClasses)]OpStats
	var senders protocol.SiteSet // shards with a charge; most sites send nothing
	for i := range b {
		sh := &b[i]
		if sh.transmissions.Load() == 0 {
			continue
		}
		senders = senders.Add(protocol.SiteID(i))
		out.Requests += sh.requests.Load()
		out.Replies += sh.replies.Load()
		out.Bytes += sh.bytes.Load()
		for j := range byOp {
			byOp[j].Requests += sh.byOp[j].requests.Load()
			byOp[j].Replies += sh.byOp[j].replies.Load()
		}
		sh.kindMu.Lock()
		for k, v := range sh.byKind {
			out.ByKind[k] += v
		}
		sh.kindMu.Unlock()
	}
	// Loaded last so the snapshot invariant holds (see Stats doc), from
	// the shards whose requests and replies were loaded.
	for set := uint64(senders); set != 0; set &= set - 1 {
		sh := &b[bits.TrailingZeros64(set)]
		out.Transmissions += sh.transmissions.Load()
		for j := range byOp {
			byOp[j].Transmissions += sh.byOp[j].transmissions.Load()
		}
	}
	for j, op := range opClasses {
		if byOp[j] != (OpStats{}) {
			out.ByOp[op] = byOp[j]
		}
	}
	return out
}

// Transmissions returns Stats().Transmissions without building the
// rest of the snapshot: the sum over the sender shards.
func (n *Network) Transmissions() uint64 {
	var total uint64
	b := n.bank.Load()
	for i := range b {
		total += b[i].transmissions.Load()
	}
	return total
}

// ResetStats zeroes the traffic counters by installing a fresh bank.
// Concurrent Stats callers see either the old bank's totals or the new
// (zero) ones, never a torn mixture; an operation in flight across the
// swap may split its charges between the banks.
func (n *Network) ResetStats() {
	n.bank.Store(new(counterBank))
}

// route returns the handler for `to` if it is up. A `to` that cannot
// name a site is down; a `from` that cannot fails the leg, and deliver
// charges its broadcast nothing.
func (n *Network) route(from, to protocol.SiteID) (protocol.Handler, error) {
	if !validSite(from) {
		return nil, fmt.Errorf("%v -> %v: %w", from, to, errBadSender)
	}
	if !validSite(to) || !n.up[to].Load() {
		return nil, fmt.Errorf("%v -> %v: %w", from, to, protocol.ErrSiteDown)
	}
	h := n.handlers[to].Load()
	if h == nil {
		return nil, fmt.Errorf("%v -> %v: %w", from, to, protocol.ErrSiteDown)
	}
	return *h, nil
}

// countRequest charges request transmissions to sender from's shard.
// opIdx attributes them to a §5 operation class (-1 for unlabelled
// traffic). Transmissions is bumped before Requests — paired with Stats
// loading it last, this keeps Transmissions >= Requests + Replies in
// every snapshot.
func (n *Network) countRequest(from protocol.SiteID, opIdx int, kind string, transmissions, bytes uint64) {
	b := &n.bank.Load()[from]
	b.transmissions.Add(transmissions)
	b.requests.Add(transmissions)
	b.bytes.Add(bytes)
	if opIdx >= 0 {
		oc := &b.byOp[opIdx]
		oc.transmissions.Add(transmissions)
		oc.requests.Add(transmissions)
	}
	b.kindMu.Lock()
	if b.byKind == nil {
		b.byKind = make(map[string]uint64)
	}
	b.byKind[kind] += transmissions
	b.kindMu.Unlock()
}

// countReplies charges replies transmissions of the given total size
// to sender from's shard, Transmissions first as countRequest does.
func (n *Network) countReplies(from protocol.SiteID, opIdx int, replies, bytes uint64) {
	b := &n.bank.Load()[from]
	b.transmissions.Add(replies)
	b.replies.Add(replies)
	b.bytes.Add(bytes)
	if opIdx >= 0 {
		oc := &b.byOp[opIdx]
		oc.transmissions.Add(replies)
		oc.replies.Add(replies)
	}
}

// roundTrip performs one delivery to a single destination: route, the
// fault rule, the handler. chargeReq and
// chargeReply say which of its two transmissions are charged here (the
// request only once the destination is known to be routable). A site
// calling itself is free: local operations generate no network traffic.
func (n *Network) roundTrip(ctx context.Context, from, to protocol.SiteID, req protocol.Request, chargeReq, chargeReply bool) (protocol.Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	h, err := n.route(from, to)
	if err != nil {
		return nil, err
	}
	if from == to {
		return h.Handle(ctx, from, req)
	}
	if chargeReq {
		n.countRequest(from, opClassIndex(protocol.CtxOp(ctx)), req.Kind(), 1, uint64(protocol.WireSize(req)))
	}
	deliver, ferr := n.applyFault(from, to, req)
	if !deliver {
		return nil, ferr
	}
	resp, err := h.Handle(ctx, from, req)
	if ferr != nil {
		// Reply lost: the handler ran, but its outcome is invisible to
		// the caller and no reply traffic is charged.
		return nil, ferr
	}
	if err != nil {
		return nil, err
	}
	if chargeReply {
		n.countReplies(from, opClassIndex(protocol.CtxOp(ctx)), 1, uint64(protocol.WireSize(resp)))
	}
	return resp, nil
}

// Call sends a request to one site and waits for the response. It is
// charged as two transmissions: the request and the response (this is how
// §5.1 counts the recovery version-vector exchange).
func (n *Network) Call(ctx context.Context, from, to protocol.SiteID, req protocol.Request) (protocol.Response, error) {
	return n.roundTrip(ctx, from, to, req, true, true)
}

// Fetch pulls data from one site and is charged as a single transmission:
// the block transfer itself. The request is piggybacked on state the
// destination already returned during quorum collection (§5.1 charges a
// voting read repair exactly one extra message).
func (n *Network) Fetch(ctx context.Context, from, to protocol.SiteID, req protocol.Request) (protocol.Response, error) {
	return n.roundTrip(ctx, from, to, req, false, true)
}

// Broadcast sends a request to every site in dests and collects the
// per-site results. Charged as one transmission in multicast mode or one
// per destination in unicast mode, plus one transmission per reply
// received. A destination equal to the sender is skipped and never
// charged: local operations cost no traffic (§5). Destinations are
// contacted in order on the caller's goroutine: a leg waits on nothing.
func (n *Network) Broadcast(ctx context.Context, from protocol.SiteID, dests []protocol.SiteID, req protocol.Request) map[protocol.SiteID]protocol.Result {
	return n.deliver(ctx, from, dests, req, true)
}

// Notify sends a request to every site in dests without charging for
// replies: the reliable-delivery assumption stands in for per-site
// acknowledgements (§5.1: a naive available copy write is one message;
// the voting block update after quorum collection is likewise one).
// Handler errors are still reported to the caller for correctness.
func (n *Network) Notify(ctx context.Context, from protocol.SiteID, dests []protocol.SiteID, req protocol.Request) map[protocol.SiteID]protocol.Result {
	return n.deliver(ctx, from, dests, req, false)
}

// leg is the Network as protocol.FanOut drives it: an uncharged
// round trip; deliver charges the broadcast before and the replies after.
type leg Network

func (l *leg) Call(ctx context.Context, from, to protocol.SiteID, req protocol.Request) (protocol.Response, error) {
	return (*Network)(l).roundTrip(ctx, from, to, req, false, false)
}

func (n *Network) deliver(ctx context.Context, from protocol.SiteID, dests []protocol.SiteID, req protocol.Request, countReplies bool) map[protocol.SiteID]protocol.Result {
	// A destination equal to the sender is skipped before accounting: a
	// self-send is a local operation and costs no traffic per §5.
	targets := uint64(0)
	for _, to := range dests {
		if to != from {
			targets++
		}
	}
	opIdx := opClassIndex(protocol.CtxOp(ctx))
	if targets > 0 && ctx.Err() == nil && validSite(from) {
		reqBytes := uint64(protocol.WireSize(req))
		if n.mode == Unicast {
			// One transmission per destination, whether or not it is up: the
			// sender cannot know (§5.2).
			n.countRequest(from, opIdx, req.Kind(), targets, reqBytes*targets)
		} else {
			// One transmission reaches every destination; the payload goes
			// over the wire once.
			n.countRequest(from, opIdx, req.Kind(), 1, reqBytes)
		}
	}
	results := protocol.FanOut(ctx, from, dests, req, (*leg)(n))
	if countReplies {
		// The replies are charged together, once the fan-out is over.
		var replies, bytes uint64
		for _, to := range dests {
			if res, ok := results[to]; ok && res.Err == nil {
				replies++
				bytes += uint64(protocol.WireSize(res.Resp))
			}
		}
		if replies > 0 {
			n.countReplies(from, opIdx, replies, bytes)
		}
	}
	return results
}
