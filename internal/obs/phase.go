package obs

import (
	"sync/atomic"

	"relidev/internal/protocol"
)

// Critical-path metric families (DESIGN.md §15). Phase families are
// keyed by scheme/site/op/phase; the peer RTT family swaps the op
// label for a peer label; store phases are keyed site/phase and fed by
// the group-commit batcher through the wiring layer.
const (
	// MetricOpPhase is the per-phase latency histogram of operations:
	// how much of an op's wall time went to each critical-path slice
	// (lock wait, fan-out, rpc, local residual, straggler sub-phase).
	MetricOpPhase = "relidev_op_phase_ns"
	// MetricPeerRTT is the per-destination round-trip latency observed
	// inside quorum fan-outs — unlike MetricTransportPeerLatency (Call/
	// Fetch only), this sees every broadcast member, so the slowest
	// quorum member is identifiable per peer.
	MetricPeerRTT = "relidev_fanout_peer_rtt_ns"
	// MetricStorePhase is the store-side phase histogram (queue_wait,
	// apply, fsync), keyed by site/phase. Store phases are per batched
	// request (queue_wait) or per flush (apply, fsync) — one fsync
	// covers a whole group-commit batch, so they are reported beside
	// the op partition, not inside it.
	MetricStorePhase = "relidev_store_phase_ns"
)

// Store-side phase labels for MetricStorePhase.
const (
	// StorePhaseQueueWait is a batched write's wait in the group-commit
	// queue: enqueue to flush start.
	StorePhaseQueueWait = "queue_wait"
	// StorePhaseApply is a flush's apply loop: writing the batch's
	// records into the underlying store.
	StorePhaseApply = "apply"
	// StorePhaseFsync is a flush's single durability sync.
	StorePhaseFsync = "fsync"
)

// phases indexes the per-op phase metric arrays. The first
// phasePartition entries partition the operation's wall time (their
// sums equal end-to-end latency); entries after that re-slice time
// already attributed to a parent phase.
var phases = [...]string{
	protocol.PhaseLockWait,
	protocol.PhaseFanout,
	protocol.PhaseRPC,
	protocol.PhaseLocal,
	protocol.PhaseStraggler,
}

const (
	phaseLockWait = iota
	phaseFanout
	phaseRPC
	phaseLocal
	phaseStraggler

	// phasePartition is how many leading entries of phases partition
	// the op's wall time; phases[phasePartition:] are sub-phases.
	phasePartition = phaseLocal + 1
)

func phaseIndex(phase string) int {
	for i, p := range phases {
		if p == phase {
			return i
		}
	}
	return -1
}

// A Scope is one operation's instrumentation: its critical-path sums,
// the context node carrying its §5 label and this phase recorder, and
// its span nodes. StartOp fills in a Scope the caller owns and Done
// empties it, so an op allocates none (scheme.OpLocks keeps one per
// lock). Sums are atomics: an op's round trips may run on goroutines
// of their own (the recovery exchange's next page, a fan-out's legs).
type Scope struct {
	s    *SchemeObs
	op   int // ops index
	sums [len(phases)]atomic.Int64
	node protocol.OpNode   // label + this recorder
	span protocol.SpanNode // the op's span, attached once when traced
	// call is the span node of the op's transport call in flight,
	// claimed through held and released when the call's span ends.
	call protocol.SpanNode
	held atomic.Bool
	// fan carries a metered fan-out's boundary readings between
	// MeteredTransport and the fan-out loop below it. Only the op's own
	// goroutine touches it: an op runs its fan-outs one at a time.
	fan struct {
		start, end       int64
		hasStart, hasEnd bool
	}
}

// Now implements protocol.PhaseRecorder with the observer's injected
// clock, so in-scope transports measure durations deterministically.
func (a *Scope) Now() int64 { return a.s.o.Now() }

// FanOutStart implements protocol.PhaseRecorder: the metering
// decorator's start reading, else a fresh one.
func (a *Scope) FanOutStart() int64 {
	if a.fan.hasStart {
		return a.fan.start
	}
	return a.Now()
}

// FanOutEnd implements protocol.PhaseRecorder.
func (a *Scope) FanOutEnd(at int64) { a.fan.end, a.fan.hasEnd = at, true }

// openFan offers the fan-out loop below a metered fan-out the
// decorator's start reading, and closeFan returns the end reading the
// loop reported, if one did. Both accept the nil Scope of an
// unattributed fan-out.
func (a *Scope) openFan(start int64) {
	if a != nil {
		a.fan.start, a.fan.hasStart, a.fan.hasEnd = start, true, false
	}
}

func (a *Scope) closeFan() (end int64, ok bool) {
	if a == nil {
		return 0, false
	}
	end, ok = a.fan.end, a.fan.hasEnd
	a.fan.hasStart, a.fan.hasEnd = false, false
	return end, ok
}

// RecordPhase implements protocol.PhaseRecorder.
func (a *Scope) RecordPhase(phase string, ns int64) {
	if ns <= 0 {
		return
	}
	if i := phaseIndex(phase); i >= 0 {
		a.sums[i].Add(ns)
	}
}

// RecordPeerRTT implements protocol.PhaseRecorder: one fan-out
// destination's round trip, charged to the peer's RTT series.
func (a *Scope) RecordPeerRTT(to protocol.SiteID, ns int64) {
	a.s.peerRTT(to).Observe(ns)
}

// peerRTT resolves the fan-out RTT histogram for one destination, on
// its first round trip and then from the per-SchemeObs slot; nil for an
// id outside the site space.
func (s *SchemeObs) peerRTT(to protocol.SiteID) *Histogram {
	if to < 0 || int(to) >= len(s.peers) {
		return nil
	}
	h := s.peers[to].Load()
	if h == nil {
		h = s.o.reg.Histogram(MetricPeerRTT,
			L("scheme", s.scheme), L("site", s.site.String()), L("peer", to.String()))
		s.peers[to].Store(h)
	}
	return h
}

// Now reads the observer's clock: the timestamp source for durations
// the caller measures itself (lock wait). Returns 0 for a nil handle,
// so unmetered controllers compute zero-width waits.
func (s *SchemeObs) Now() int64 {
	if s == nil {
		return 0
	}
	return s.o.Now()
}

// AddLockWait charges ns of pre-protocol lock-queue wait to the
// lock_wait phase. The span started before the lock (StartOp's start),
// so end-to-end latency already includes the wait and the partition
// still sums to it. Call it once, right after StartOp, with the
// measured OpLocks acquisition time.
func (sp *OpSpan) AddLockWait(ns int64) {
	if sp.s == nil || ns <= 0 {
		return
	}
	sp.scope.sums[phaseLockWait].Add(ns)
}

// closePhases observes the op's phase histograms at span close and
// returns the per-phase durations (indexed like phases). The local
// residual is total minus the partition phases, clamped at zero —
// pipelined ops can attribute more wire time than wall time.
func (sp *OpSpan) closePhases(total int64) [len(phases)]int64 {
	var durs [len(phases)]int64
	attributed := int64(0)
	for i := 0; i < phasePartition; i++ {
		if i == phaseLocal {
			continue
		}
		durs[i] = sp.scope.sums[i].Load()
		attributed += durs[i]
	}
	if local := total - attributed; local > 0 {
		durs[phaseLocal] = local
	}
	for i := phasePartition; i < len(phases); i++ {
		durs[i] = sp.scope.sums[i].Load()
	}
	for i, ns := range durs {
		if ns > 0 || i < phasePartition {
			// Partition phases observe even zero durations so each
			// phase's count matches the op count and per-phase means
			// stay comparable; sub-phases only record when present.
			sp.s.phase[sp.idx][i].Observe(ns)
		}
	}
	return durs
}

// emitPhases appends one EvPhase child span per non-zero phase to the
// trace ring, so stitched trees carry the attribution
// (TestTreePhasesMatchRegistry and TestSpanPhases read them back).
func (sp *OpSpan) emitPhases(durs [len(phases)]int64) {
	s := sp.s
	if s.o.tracer == nil {
		return
	}
	for i, ns := range durs {
		if ns <= 0 {
			continue
		}
		child := s.o.newSpan(s.site, protocol.SpanContext{TraceID: sp.span.TraceID, SpanID: sp.span.SpanID})
		s.emit(withSpan(child, Event{Kind: EvPhase, Op: sp.op, Block: sp.block,
			d: detail{form: detailPhase, s: phases[i], a: ns}}))
	}
}
