package protocol

import "context"

// Operation labels. The observability layer tags the context of every
// controller operation with one of these so that the transport can
// attribute its §5 transmission accounting to the operation that caused
// the traffic (write, read, or recovery — the three rows of the §5 cost
// tables). The label rides the context through any transport decorators
// (fault injection, metering) down to the network that does the
// counting.
const (
	OpWrite    = "write"
	OpRead     = "read"
	OpRecovery = "recovery"
	// OpTelemetry labels cross-site telemetry scrapes (DESIGN.md §16):
	// the aggregation plane's registry pulls. Telemetry is not one of
	// the §5 rows — the paper prices file operations, not monitoring —
	// so the class exists purely to keep scrape traffic out of the
	// write/read/recovery brackets while still appearing in the
	// KindOps table, where the wirecheck/UnpricedKinds contract can see
	// that it is deliberate, attributed traffic rather than silent skew.
	OpTelemetry = "telemetry"
)

type opCtxKey struct{}

// An OpScope is what one operation's context carries for the layers
// below the controller: the label the transport attributes traffic to
// and the recorder it charges wire time to (phasectx.go). Both ride one
// context node, so opening a metered operation costs one WithValue.
type OpScope struct {
	Op     string
	Phases PhaseRecorder
}

// WithOpScope attaches s to ctx for the enclosed operation. The caller
// owns s: the observability layer embeds it in the allocation it makes
// per operation anyway.
func WithOpScope(ctx context.Context, s *OpScope) context.Context {
	return context.WithValue(ctx, opCtxKey{}, s)
}

func ctxScope(ctx context.Context) *OpScope {
	s, _ := ctx.Value(opCtxKey{}).(*OpScope)
	return s
}

// WithOp labels ctx with the protocol-level operation the enclosed
// messages belong to, keeping any phase recorder already attached.
func WithOp(ctx context.Context, op string) context.Context {
	return WithOpScope(ctx, &OpScope{Op: op, Phases: CtxPhases(ctx)})
}

// CtxOp returns the operation label attached by WithOp or WithOpScope,
// or "" when the context is unlabelled (uninstrumented callers; their
// traffic is counted only in the aggregate totals).
func CtxOp(ctx context.Context) string {
	if s := ctxScope(ctx); s != nil {
		return s.Op
	}
	return ""
}
