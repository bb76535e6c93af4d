package obs

import (
	"context"
	"errors"
	"sync/atomic"

	"relidev/internal/protocol"
)

// Transport metric families, keyed by transport/method (+class, +peer).
const (
	// MetricTransportOps counts transport invocations per method.
	MetricTransportOps = "relidev_transport_ops_total"
	// MetricTransportErrors counts failed invocations (for broadcasts,
	// failed per-destination results) per method and failure class.
	MetricTransportErrors = "relidev_transport_errors_total"
	// MetricTransportLatency is the per-method invocation latency (for
	// broadcasts, the whole concurrent fan-out).
	MetricTransportLatency = "relidev_transport_latency_ns"
	// MetricTransportPeerLatency is the per-peer round-trip latency of
	// Call and Fetch.
	MetricTransportPeerLatency = "relidev_transport_peer_latency_ns"
)

// Failure classes, derived from the protocol sentinels.
const (
	ClassDown        = "down"
	ClassUnreachable = "unreachable"
	ClassTransient   = "transient"
	ClassInjected    = "injected"
	ClassRemote      = "remote"
	ClassCanceled    = "canceled"
	ClassOther       = "other"
)

var errorClasses = [...]string{ClassDown, ClassUnreachable, ClassTransient, ClassInjected, ClassRemote, ClassCanceled, ClassOther}

// classifyError buckets a transport error by its sentinel: an injected
// fault first (it wraps the sentinel it imitates, and the injection is
// the more specific fact), then a delivered remote error, the
// down/unreachable/transient sentinels and context cancellation.
func classifyError(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, protocol.ErrInjected):
		return ClassInjected
	case errors.Is(err, protocol.ErrRemote):
		return ClassRemote
	case errors.Is(err, protocol.ErrSiteDown):
		return ClassDown
	case errors.Is(err, protocol.ErrSiteUnreachable):
		return ClassUnreachable
	case errors.Is(err, protocol.ErrTransient):
		return ClassTransient
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return ClassCanceled
	default:
		return ClassOther
	}
}

// Transport methods: index and metric label; an rpc span's detail
// leads with the label (round trips then name their destination,
// fan-outs their width — detailRPC).
const (
	mCall = iota
	mFetch
	mBroadcast
	mNotify
)

var methods = [...]string{"call", "fetch", "broadcast", "notify"}

// methodMetrics is the pre-resolved series set for one transport
// method, so the wire path is atomics-only.
type methodMetrics struct {
	ops     *Counter
	latency *Histogram
	errs    map[string]*Counter // by failure class
}

// countErr buckets one failure under its class.
func (mm *methodMetrics) countErr(err error) {
	mm.errs[classifyError(err)].Inc()
}

// A MeteredTransport decorates any protocol.Transport with metering:
// invocation counts, failure classes via the protocol sentinels,
// per-method latency, and per-peer round-trip latency for Call/Fetch.
// It composes with other decorators (apply it outermost so it observes
// exactly what the controllers see, fault injection included) and
// never alters results.
//
// It does not attempt §5 transmission accounting — a decorator cannot
// see, e.g., whether a failed delivery was charged — that stays inside
// simnet, attributed per operation via the protocol.WithOp context
// label that flows through this decorator unchanged.
type MeteredTransport struct {
	inner   protocol.Transport
	o       *Observer
	name    Label // transport=<name>
	methods [len(methods)]methodMetrics
	// peerLat is indexed by SiteID: the series of the peers declared at
	// wrap time, nil for any other id.
	peerLat [protocol.MaxSites]*Histogram
}

var _ protocol.Transport = (*MeteredTransport)(nil)

// WrapTransport meters inner under the given transport name
// ("sim", "rpc", ...). peers is the whole membership: their per-peer
// latency series exist from here on, and a round trip to any other id
// is metered under its method only. A nil observer returns inner
// unchanged.
func WrapTransport(o *Observer, name string, inner protocol.Transport, peers []protocol.SiteID) protocol.Transport {
	if o == nil {
		return inner
	}
	t := &MeteredTransport{inner: inner, o: o, name: L("transport", name)}
	for i, m := range methods {
		ml := L("method", m)
		mm := methodMetrics{
			ops:     o.reg.Counter(MetricTransportOps, t.name, ml),
			latency: o.reg.Histogram(MetricTransportLatency, t.name, ml),
			errs:    make(map[string]*Counter, len(errorClasses)),
		}
		for _, class := range errorClasses {
			mm.errs[class] = o.reg.Counter(MetricTransportErrors, t.name, ml, L("class", class))
		}
		t.methods[i] = mm
	}
	for _, p := range peers {
		if p >= 0 && int(p) < len(t.peerLat) {
			t.peerLat[p] = o.reg.Histogram(MetricTransportPeerLatency, t.name, L("peer", p.String()))
		}
	}
	return t
}

// An rpcSpan is an open client-side rpc span: the event its end will
// emit, and the op's call node when the span holds it. A plain value —
// opening and closing a span inside a traced op allocates nothing. The
// zero value (tracing off) ends as a no-op.
type rpcSpan struct {
	tracer *Tracer
	ev     Event
	held   *atomic.Bool
}

// traceCall opens a client-side rpc span under the caller's operation
// span when tracing is on: the returned context carries the new span
// (so the remote site's handle span links to it, through simnet's
// shared context or rpcnet's wire trace field). Inside a traced op that
// context is the op's call node, re-pointed (a Transport keeps no ctx
// past its return); outside one, or while another of the op's calls
// holds the node, it is a new node. n is the destination for a round
// trip (whose lane is n+1) and the fan-out width otherwise. Without
// tracing the context passes through and nothing is recorded.
func (t *MeteredTransport) traceCall(ctx context.Context, m int, from protocol.SiteID, n, lane int, req protocol.Request) (context.Context, rpcSpan) {
	if t.o.tracer == nil {
		return ctx, rpcSpan{}
	}
	sp := t.o.newSpan(from, protocol.CtxSpan(ctx))
	span := rpcSpan{tracer: t.o.tracer, ev: withSpan(sp, Event{Site: int(from), Op: protocol.CtxOp(ctx), Kind: EvRPC, Block: NoBlock, Lane: lane,
		d: detail{form: detailRPC + detailForm(m), a: int64(n), s: req.Kind()}})}
	sc := protocol.SpanContext{TraceID: sp.TraceID, SpanID: sp.SpanID}
	if scope, ok := protocol.CtxPhases(ctx).(*Scope); ok && scope.held.CompareAndSwap(false, true) {
		span.held = &scope.held
		return scope.call.Attach(ctx, sc), span
	}
	return protocol.WithSpan(ctx, sc), span
}

// end emits the span's trace event with the outcome and releases the
// op's call node; the call's context is dead from here on.
func (r rpcSpan) end(err error) {
	if r.tracer == nil {
		return
	}
	if err != nil {
		r.ev.d.t = classifyError(err)
	}
	r.tracer.Emit(r.ev)
	if r.held != nil {
		r.held.Store(false)
	}
}

// roundTrip meters and traces one Call or Fetch.
func (t *MeteredTransport) roundTrip(ctx context.Context, m int, from, to protocol.SiteID, req protocol.Request,
	do func(context.Context, protocol.SiteID, protocol.SiteID, protocol.Request) (protocol.Response, error)) (protocol.Response, error) {
	callCtx, span := t.traceCall(ctx, m, from, int(to), int(to)+1, req)
	mm := &t.methods[m]
	mm.ops.Inc()
	start := t.o.Now()
	resp, err := do(callCtx, from, to, req)
	span.end(err)
	elapsed := t.o.Now() - start
	mm.latency.Observe(elapsed)
	if to >= 0 && int(to) < len(t.peerLat) {
		t.peerLat[to].Observe(elapsed) // nil for an undeclared peer: a no-op
	}
	if rec := protocol.CtxPhases(ctx); rec != nil {
		rec.RecordPhase(protocol.PhaseRPC, elapsed)
	}
	if err != nil {
		mm.countErr(err)
	}
	return resp, err
}

// Call implements protocol.Transport.
func (t *MeteredTransport) Call(ctx context.Context, from, to protocol.SiteID, req protocol.Request) (protocol.Response, error) {
	return t.roundTrip(ctx, mCall, from, to, req, t.inner.Call)
}

// Fetch implements protocol.Transport.
func (t *MeteredTransport) Fetch(ctx context.Context, from, to protocol.SiteID, req protocol.Request) (protocol.Response, error) {
	return t.roundTrip(ctx, mFetch, from, to, req, t.inner.Fetch)
}

// fanOut meters and traces one Broadcast or Notify. The whole fan-out
// is one child span: every destination's handle span parents to it.
// Inside an op it shares its start and end with the fan-out loop below
// (protocol.FanOut), through the op's Scope; it reads the clock at the
// end itself only where no loop reported one (rpcnet's overlapped
// legs, a cancelled fan-out), and outside an op at both ends.
func (t *MeteredTransport) fanOut(ctx context.Context, m int, from protocol.SiteID, dests []protocol.SiteID, req protocol.Request,
	do func(context.Context, protocol.SiteID, []protocol.SiteID, protocol.Request) map[protocol.SiteID]protocol.Result) map[protocol.SiteID]protocol.Result {
	mm := &t.methods[m]
	mm.ops.Inc()
	callCtx, span := t.traceCall(ctx, m, from, len(dests), 0, req)
	rec := protocol.CtxPhases(ctx)
	sc, _ := rec.(*Scope)
	start := t.o.Now()
	sc.openFan(start)
	results := do(callCtx, from, dests, req)
	end, ok := sc.closeFan()
	if !ok {
		end = t.o.Now()
	}
	elapsed := end - start
	mm.latency.Observe(elapsed)
	if rec != nil {
		// The whole fan-out is one critical-path slice: the coordinator
		// waits for every destination, and the straggler sub-phase
		// (recorded by the fan-out's join, which sees per-destination
		// round trips) re-slices this wait.
		rec.RecordPhase(protocol.PhaseFanout, elapsed)
	}
	for _, to := range dests {
		if res := results[to]; res.Err != nil {
			mm.countErr(res.Err)
		}
	}
	span.end(nil)
	return results
}

// Broadcast implements protocol.Transport.
func (t *MeteredTransport) Broadcast(ctx context.Context, from protocol.SiteID, dests []protocol.SiteID, req protocol.Request) map[protocol.SiteID]protocol.Result {
	return t.fanOut(ctx, mBroadcast, from, dests, req, t.inner.Broadcast)
}

// Notify implements protocol.Transport.
func (t *MeteredTransport) Notify(ctx context.Context, from protocol.SiteID, dests []protocol.SiteID, req protocol.Request) map[protocol.SiteID]protocol.Result {
	return t.fanOut(ctx, mNotify, from, dests, req, t.inner.Notify)
}
