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
	// write/read/recovery brackets while the transport still counts it,
	// as attributed traffic under its own label.
	OpTelemetry = "telemetry"
)

type opCtxKey struct{}

// An OpScope is what one operation's context carries for the layers
// below the controller: the label the transport attributes traffic to
// and the recorder it charges wire time to (phasectx.go).
type OpScope struct {
	Op     string
	Phases PhaseRecorder
}

// An OpNode is the context node that carries an operation's OpScope
// inline, so attaching the scope is one allocation — and none for an
// owner that keeps the node in storage of its own and re-points it per
// operation, as the observability layer's op scope does in the lock
// stripe that serialises the op. A context holding such a node is
// valid only until its operation ends.
type OpNode struct {
	context.Context
	Scope OpScope
}

// Value answers the scope lookup with the inline OpScope and passes
// every other key to the parent.
func (n *OpNode) Value(key any) any {
	if key == (opCtxKey{}) {
		return &n.Scope
	}
	return n.Context.Value(key)
}

func ctxScope(ctx context.Context) *OpScope {
	s, _ := ctx.Value(opCtxKey{}).(*OpScope)
	return s
}

// WithOp labels ctx with the protocol-level operation the enclosed
// messages belong to, keeping any phase recorder already attached.
func WithOp(ctx context.Context, op string) context.Context {
	return &OpNode{ctx, OpScope{Op: op, Phases: CtxPhases(ctx)}}
}

// CtxOp returns the operation label attached by WithOp or an OpNode,
// or "" when the context is unlabelled (uninstrumented callers; their
// traffic is counted only in the aggregate totals).
func CtxOp(ctx context.Context) string {
	if s := ctxScope(ctx); s != nil {
		return s.Op
	}
	return ""
}
