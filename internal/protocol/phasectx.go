package protocol

import "context"

// Phase labels for critical-path latency attribution (DESIGN.md §15).
// Each names one slice of an operation's wall time; the top-level
// phases (lock wait, fan-out, rpc, local) partition the operation, so
// their durations sum to the end-to-end latency, while sub-phases
// (straggler) re-slice time already attributed to their parent phase.
const (
	// PhaseLockWait is the time an operation spent waiting to acquire
	// its per-block stripe in scheme.OpLocks before the protocol ran.
	PhaseLockWait = "lock_wait"
	// PhaseFanout is the time inside quorum fan-outs (Broadcast/Notify):
	// the whole round, however the transport runs its legs.
	PhaseFanout = "fanout"
	// PhaseRPC is the time inside point-to-point rounds (Call/Fetch).
	PhaseRPC = "rpc"
	// PhaseLocal is the residual: local compute and store time not
	// spent under the lock queue or on the wire. Recorded implicitly at
	// span close as end-to-end minus the attributed phases.
	PhaseLocal = "local"
	// PhaseStraggler is the marginal wait charged to the slowest member
	// of a fan-out: how much longer its round trip took than the
	// second-slowest destination's. A sub-slice of PhaseFanout, so it is
	// excluded from the partition sum.
	PhaseStraggler = "straggler"
)

// A PhaseRecorder receives critical-path attribution from layers below
// the observability decorators — the fan-out internals of simnet and
// rpcnet, which alone can see per-destination round-trip times. The
// observability layer implements it; transports reach it through the
// operation context so they need no obs dependency.
//
// Now reads the recorder's injected clock (nanoseconds; manual under
// deterministic harnesses) so in-scope transports can measure
// durations without touching the wall clock themselves.
//
// A fan-out loop and the metering decorator above it share the
// fan-out's boundaries, so each is read once: FanOutStart returns the
// reading the loop's first leg starts at (the decorator's, when it took
// one just before, else a fresh one), and FanOutEnd hands back the
// reading its last leg ended at, which the decorator takes as the
// fan-out's end.
type PhaseRecorder interface {
	Now() int64
	RecordPhase(phase string, ns int64)
	RecordPeerRTT(to SiteID, ns int64)
	FanOutStart() int64
	FanOutEnd(at int64)
}

// CtxPhases returns the phase recorder of the operation ctx belongs to
// (OpScope.Phases), or nil when the operation is unattributed.
func CtxPhases(ctx context.Context) PhaseRecorder {
	if s := ctxScope(ctx); s != nil {
		return s.Phases
	}
	return nil
}
