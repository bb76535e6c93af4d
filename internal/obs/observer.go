package obs

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"relidev/internal/block"
	"relidev/internal/clock"
	"relidev/internal/protocol"
)

// Metric family names. Operation families are keyed by
// scheme/site/op labels; see DESIGN.md §10 for the paper quantity
// behind each.
const (
	// MetricOpAttempts counts operations that reached the protocol (for
	// the gated schemes, past the availability check).
	MetricOpAttempts = "relidev_op_attempts_total"
	// MetricOpCompletions counts operations that succeeded.
	MetricOpCompletions = "relidev_op_completions_total"
	// MetricOpFailures counts operations that returned an error.
	MetricOpFailures = "relidev_op_failures_total"
	// MetricOpParticipants sums, over completed operations, the number
	// of participating sites (the measured counterpart of the §5
	// participation level U).
	MetricOpParticipants = "relidev_op_participants_total"
	// MetricOpLatency is the per-operation latency histogram.
	MetricOpLatency = "relidev_op_latency_ns"
	// MetricStaleReads counts lazy refreshes: voting reads that found the
	// local copy behind the quorum's version and repaired it with one
	// block fetch before answering (Figure 3; §5.1 charges the extra
	// message). Every such read returned current data — the name is
	// historical, no stale read was served.
	MetricStaleReads = "relidev_stale_reads_total"
	// MetricWriteTwoRound counts completed voting writes that used the
	// classic two-round shape (vote round then put fan-out) instead of
	// the single-round prepare-write of DESIGN.md §12 — version-conflict
	// fallbacks, or forced-classic configurations.
	MetricWriteTwoRound = "relidev_write_two_round_total"
	// MetricWriteTwoRoundParticipants sums participation over those
	// two-round writes, so §5 conformance can price each shape at its
	// own participation level.
	MetricWriteTwoRoundParticipants = "relidev_write_two_round_participants_total"
	// MetricGroupCommitOccupancy is a gauge holding the size of the most
	// recent group-commit batch a site's store flushed: how many writes
	// shared one fsync (DESIGN.md §12).
	MetricGroupCommitOccupancy = "relidev_group_commit_batch_occupancy"
	// MetricWTransitions counts changes of a site's was-available set.
	MetricWTransitions = "relidev_w_transitions_total"
	// MetricClosures counts closure recomputations during available
	// copy recovery.
	MetricClosures = "relidev_closure_recomputations_total"
	// MetricRecoveryPages counts continuation pages of the recovery
	// exchange: each is one request and one reply past the single pair
	// §5 prices a recovery at.
	MetricRecoveryPages = "relidev_recovery_pages_total"
)

// ops indexes the per-operation metric arrays: the three §5 rows.
var ops = [...]string{protocol.OpWrite, protocol.OpRead, protocol.OpRecovery}

func opIndex(op string) int {
	for i, o := range ops {
		if o == op {
			return i
		}
	}
	return -1
}

// An Observer owns one registry plus (optionally) one tracer, and
// hands out pre-resolved per-scheme/site instrumentation handles. A
// nil *Observer is valid everywhere and observes nothing.
type Observer struct {
	reg    *Registry
	tracer *Tracer
	clock  clock.Clock

	// spanSeq allocates span identities for this process's sites; the
	// originating site rides in the top bits (see newSpanID), so spans
	// allocated concurrently by different sites — or by different
	// processes — never collide.
	spanSeq atomic.Uint64

	mu      sync.Mutex
	schemes map[string]*SchemeObs
}

// spanIDs is one span's identity triple inside a trace tree.
type spanIDs struct {
	TraceID, SpanID, ParentID uint64
}

// spanSeqBits is how much of a span ID the per-process sequence keeps;
// the bits above carry site+1, so IDs are unique across concurrently
// allocating sites and processes (and never zero).
const spanSeqBits = 48

// newSpanID allocates a span ID for the given site.
func (o *Observer) newSpanID(site protocol.SiteID) uint64 {
	return uint64(site+1)<<spanSeqBits | (o.spanSeq.Add(1) & (1<<spanSeqBits - 1))
}

// newSpan opens a span at site under the given parent context; with no
// parent the span is a trace root and its SpanID doubles as TraceID.
func (o *Observer) newSpan(site protocol.SiteID, parent protocol.SpanContext) spanIDs {
	id := o.newSpanID(site)
	s := spanIDs{TraceID: parent.TraceID, SpanID: id, ParentID: parent.SpanID}
	if s.TraceID == 0 {
		s.TraceID = id
	}
	return s
}

// withSpan stamps a span identity onto a trace event.
func withSpan(sp spanIDs, e Event) Event {
	e.TraceID, e.SpanID, e.ParentID = sp.TraceID, sp.SpanID, sp.ParentID
	return e
}

// HandleHook returns an observer of served requests in the shape
// site.Replica.SetHandleHook expects: it records a server-side handle
// span in this process's trace ring, causally linked to the caller's
// span (which arrives via the shared context on simnet or the wire
// trace field on rpcnet). Nil — observing nothing — when the observer
// is nil or tracing is off.
func (o *Observer) HandleHook(scheme string, site protocol.SiteID) func(ctx context.Context, from protocol.SiteID, req protocol.Request) {
	if o == nil || o.tracer == nil {
		return nil
	}
	return func(ctx context.Context, from protocol.SiteID, req protocol.Request) {
		sp := o.newSpan(site, protocol.CtxSpan(ctx))
		o.tracer.Emit(withSpan(sp, Event{
			Scheme: scheme,
			Site:   int(site),
			Op:     protocol.CtxOp(ctx),
			Kind:   EvHandle,
			Block:  NoBlock,
			d:      detail{form: detailHandle, s: req.Kind(), a: int64(from)},
		}))
	}
}

// Option configures an Observer.
type Option func(*observerConfig)

type observerConfig struct {
	clock    clock.Clock
	traceCap int
}

// WithClock injects the timestamp source (default clock.Wall).
// Replayed harnesses pass a *clock.Manual.
func WithClock(c clock.Clock) Option {
	return func(cfg *observerConfig) { cfg.clock = c }
}

// WithTracing enables the trace-event ring buffer with the given
// capacity (<= 0 means the 4096 default). Without this option only
// metrics are collected — the right setting for throughput-sensitive
// metering, since every trace event takes a shared ring lock.
func WithTracing(capacity int) Option {
	return func(cfg *observerConfig) {
		if capacity <= 0 {
			capacity = 4096
		}
		cfg.traceCap = capacity
	}
}

// New builds an Observer.
func New(opts ...Option) *Observer {
	cfg := observerConfig{clock: clock.Wall}
	for _, opt := range opts {
		opt(&cfg)
	}
	o := &Observer{
		reg:     NewRegistry(),
		clock:   cfg.clock,
		schemes: make(map[string]*SchemeObs),
	}
	if cfg.traceCap > 0 {
		o.tracer = NewTracer(cfg.traceCap, cfg.clock)
	}
	return o
}

// Now reads the observer's clock in nanoseconds (0 for a nil observer),
// so wiring layers can time external phases — group-commit flushes,
// lock waits — on the same clock the op latencies use: its Nanotime.
func (o *Observer) Now() int64 {
	if o == nil {
		return 0
	}
	return o.clock.Nanotime()
}

// Clock returns the observer's clock (clock.Wall for a nil observer),
// so the planes stacked on it — tsdb, SLO, health, flight — share its
// time base.
func (o *Observer) Clock() clock.Clock {
	if o == nil {
		return clock.Wall
	}
	return o.clock
}

// Registry returns the observer's metric registry (nil for a nil
// observer).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Tracer returns the observer's tracer, nil when tracing is off.
func (o *Observer) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tracer
}

// Snapshot copies the current metrics.
func (o *Observer) Snapshot() Snapshot {
	if o == nil {
		return Snapshot{}
	}
	return o.reg.Snapshot()
}

// SchemeSite returns the instrumentation handle for one consistency
// controller: metrics keyed by scheme/site/op, resolved once so the
// operation hot path only touches atomics. Handles are cached per
// (scheme, site). Nil-safe: a nil observer returns a nil handle, and
// every *SchemeObs method accepts a nil receiver.
func (o *Observer) SchemeSite(scheme string, site protocol.SiteID) *SchemeObs {
	if o == nil {
		return nil
	}
	key := fmt.Sprintf("%s/%d", scheme, site)
	o.mu.Lock()
	defer o.mu.Unlock()
	if s, ok := o.schemes[key]; ok {
		return s
	}
	s := &SchemeObs{o: o, scheme: scheme, site: site}
	siteLabel := L("site", site.String())
	schemeLabel := L("scheme", scheme)
	for i, op := range ops {
		opLabel := L("op", op)
		s.attempts[i] = o.reg.Counter(MetricOpAttempts, schemeLabel, siteLabel, opLabel)
		s.completions[i] = o.reg.Counter(MetricOpCompletions, schemeLabel, siteLabel, opLabel)
		s.failures[i] = o.reg.Counter(MetricOpFailures, schemeLabel, siteLabel, opLabel)
		s.participants[i] = o.reg.Counter(MetricOpParticipants, schemeLabel, siteLabel, opLabel)
		s.latency[i] = o.reg.Histogram(MetricOpLatency, schemeLabel, siteLabel, opLabel)
		for j, phase := range phases {
			s.phase[i][j] = o.reg.Histogram(MetricOpPhase, schemeLabel, siteLabel, opLabel, L("phase", phase))
		}
	}
	s.staleReads = o.reg.Counter(MetricStaleReads, schemeLabel, siteLabel)
	s.twoRound = o.reg.Counter(MetricWriteTwoRound, schemeLabel, siteLabel)
	s.twoRoundParticipants = o.reg.Counter(MetricWriteTwoRoundParticipants, schemeLabel, siteLabel)
	s.wTransitions = o.reg.Counter(MetricWTransitions, schemeLabel, siteLabel)
	s.closures = o.reg.Counter(MetricClosures, schemeLabel, siteLabel)
	o.schemes[key] = s
	return s
}

// A SchemeObs instruments one consistency controller (one scheme at
// one site). All methods are nil-receiver safe no-ops.
type SchemeObs struct {
	o      *Observer
	scheme string
	site   protocol.SiteID

	attempts             [len(ops)]*Counter
	completions          [len(ops)]*Counter
	failures             [len(ops)]*Counter
	participants         [len(ops)]*Counter
	latency              [len(ops)]*Histogram
	phase                [len(ops)][len(phases)]*Histogram
	staleReads           *Counter
	twoRound             *Counter
	twoRoundParticipants *Counter
	wTransitions         *Counter
	closures             *Counter

	peers [protocol.MaxSites]atomic.Pointer[Histogram] // fan-out RTT, by destination
}

// NoBlock marks spans and events not tied to a particular block
// (recovery operates on the whole device).
const NoBlock int64 = -1

// StartOp opens one operation span in sc, which Done left empty: it
// counts the attempt, emits the op_start trace event, and returns the
// span to close with Done. blk is the block index, or NoBlock for
// whole-device operations. start is the op's start on this observer's
// clock (Now), read by the caller before it queued for its lock, so the
// span's latency includes the wait. Call it only once the operation
// will actually run (past the availability gate), so attempt counts
// line up with the §5 conformance brackets.
//
// The returned context carries the operation's scope — the §5 label the
// transport attributes this operation's traffic to and the recorder it
// charges wire time to — and, when tracing is on, the operation's span,
// so transport calls made with it produce causally-linked child spans
// (on remote sites too). Both live in sc, the op's own until Done, and
// the context is valid until then. With a nil receiver the context
// passes through untouched, and unlabelled traffic costs nothing extra.
func (s *SchemeObs) StartOp(ctx context.Context, sc *Scope, op string, blk, start int64) (context.Context, OpSpan) {
	if s == nil {
		return ctx, OpSpan{}
	}
	i := opIndex(op)
	if i < 0 {
		return ctx, OpSpan{}
	}
	s.attempts[i].Inc()
	sp := OpSpan{s: s, op: op, idx: i, block: blk, start: start, scope: sc}
	sc.s, sc.op = s, i
	sc.node = protocol.OpNode{Context: ctx, Scope: protocol.OpScope{Op: op, Phases: sc}}
	ctx = &sc.node
	if s.o.tracer != nil {
		sp.span = s.o.newSpan(s.site, protocol.CtxSpan(ctx))
		ctx = sc.span.Attach(ctx, protocol.SpanContext{TraceID: sp.span.TraceID, SpanID: sp.span.SpanID})
	}
	s.emit(withSpan(sp.span, Event{Kind: EvOpStart, Op: op, Block: blk}))
	return ctx, sp
}

// An OpSpan is one in-flight operation. The zero value (from a nil
// SchemeObs) is a valid no-op.
type OpSpan struct {
	s     *SchemeObs
	op    string
	idx   int
	block int64
	start int64
	span  spanIDs
	scope *Scope
}

// Done closes the span: outcome counters, participation, latency, and
// the op_end trace event. participants is the number of sites that
// took part in the operation, local site included — the measured
// counterpart of the §5 participation level U; it is recorded only for
// completed operations. Last, it empties the op's Scope, so a context
// kept past the op resolves no op and keeps nothing of the caller's.
func (sp OpSpan) Done(participants int, err error) {
	s := sp.s
	if s == nil {
		return
	}
	defer func() {
		//relidev:allow context: a released scope parents no call; its nodes only answer, as an empty context, what is kept past the op
		bg := context.Background()
		*sp.scope = Scope{node: protocol.OpNode{Context: bg}}
		sp.scope.span.Attach(bg, protocol.SpanContext{})
		sp.scope.call.Attach(bg, protocol.SpanContext{})
	}()
	if err != nil {
		s.failures[sp.idx].Inc()
		if s.tracing() {
			s.emit(withSpan(sp.span, Event{Kind: EvOpEnd, Op: sp.op, Block: sp.block, d: detail{form: detailErr, s: classifyError(err)}}))
		}
		return
	}
	s.completions[sp.idx].Inc()
	if participants > 0 {
		s.participants[sp.idx].Add(uint64(participants))
	}
	total := s.o.Now() - sp.start
	s.latency[sp.idx].Observe(total)
	durs := sp.closePhases(total)
	sp.emitPhases(durs)
	s.emit(withSpan(sp.span, Event{Kind: EvOpEnd, Op: sp.op, Block: sp.block, d: detail{form: detailParticipants, a: int64(participants)}}))
}

// QuorumAssembled traces a voting quorum collection.
func (s *SchemeObs) QuorumAssembled(op string, idx block.Index, participants int, weight int64) {
	s.emit(Event{Kind: EvQuorumAssembled, Op: op, Block: int64(idx),
		d: detail{form: detailQuorum, a: int64(participants), b: weight}})
}

// VersionResolved traces the version-resolution step of a quorum.
func (s *SchemeObs) VersionResolved(op string, idx block.Index, ver block.Version) {
	s.emit(Event{Kind: EvVersionResolved, Op: op, Block: int64(idx),
		d: detail{form: detailVersion, b: int64(ver)}})
}

// LazyRefresh records a voting read repairing a stale local copy from
// src (one extra §5.1 message) — a counter plus a trace event.
func (s *SchemeObs) LazyRefresh(idx block.Index, src protocol.SiteID, ver block.Version) {
	if s == nil {
		return
	}
	s.staleReads.Inc()
	s.emit(Event{Kind: EvLazyRefresh, Op: protocol.OpRead, Block: int64(idx),
		d: detail{form: detailRefresh, a: int64(src), b: int64(ver)}})
}

// WriteTwoRound records a completed write that took the classic
// two-round shape (vote round + put fan-out) rather than the
// single-round prepare-write path, with its participation count. Call
// it alongside OpSpan.Done for successful two-round writes only.
func (s *SchemeObs) WriteTwoRound(participants int) {
	if s == nil {
		return
	}
	s.twoRound.Inc()
	if participants > 0 {
		s.twoRoundParticipants.Add(uint64(participants))
	}
}

// WTransition records a change of this site's was-available set.
func (s *SchemeObs) WTransition(old, next protocol.SiteSet) {
	if s == nil || old == next {
		return
	}
	s.wTransitions.Inc()
	if s.tracing() {
		s.emit(Event{Kind: EvWTransition, Block: -1,
			Detail: fmt.Sprintf("%v->%v", old, next)})
	}
}

// ClosureRecomputed records an available copy recovery evaluating
// C*(W_s): the root set, the resulting closure, and whether every
// closure member had recovered.
func (s *SchemeObs) ClosureRecomputed(root, closure protocol.SiteSet, complete bool) {
	if s == nil {
		return
	}
	s.closures.Inc()
	if s.tracing() {
		s.emit(Event{Kind: EvClosureRecomputed, Op: protocol.OpRecovery, Block: -1,
			Detail: fmt.Sprintf("root=%v closure=%v complete=%t", root, closure, complete)})
	}
}

// RecoveryPage counts one continuation page of the recovery exchange.
// The series is created by the first such page, so a recovery that fits
// one page leaves the snapshot exactly as it was.
func (s *SchemeObs) RecoveryPage() {
	if s == nil {
		return
	}
	s.o.reg.Counter(MetricRecoveryPages, L("scheme", s.scheme), L("site", s.site.String())).Inc()
}

// tracing reports whether trace events go anywhere. Callers that
// compute something for an event (a formatted detail, an error class)
// check it first: with tracing off a metered op must not pay for it.
func (s *SchemeObs) tracing() bool { return s != nil && s.o.tracer != nil }

// emit stamps the shared fields and forwards to the tracer (a no-op
// when tracing is off, and for a nil receiver).
func (s *SchemeObs) emit(e Event) {
	if !s.tracing() {
		return
	}
	e.Scheme = s.scheme
	e.Site = int(s.site)
	s.o.tracer.Emit(e)
}
