package protocol

import "context"

// A SpanContext identifies one node of a distributed trace. The
// observability layer opens a root span per device operation, the
// metering transport opens a child span per remote call, and the wire
// layer (rpcnet) carries the context inside every request so the
// remote site's handler span is causally linked to the caller's. The
// design follows Dapper: a trace is a tree of spans sharing TraceID,
// each span naming its parent.
type SpanContext struct {
	// TraceID names the whole operation tree; the root span's SpanID
	// doubles as the TraceID.
	TraceID uint64
	// SpanID names this node. IDs embed the originating site in the top
	// bits so concurrently-allocating sites never collide.
	SpanID uint64
}

// Valid reports whether the context names a live trace.
func (sc SpanContext) Valid() bool { return sc.TraceID != 0 && sc.SpanID != 0 }

type spanCtxKey struct{}

// spanCtx is the context node WithSpan adds. It holds the SpanContext
// inline and answers the lookup with a pointer into itself, so
// attaching a span is one allocation (context.WithValue would box the
// 16-byte value into a second one) and reading it is none.
type spanCtx struct {
	context.Context
	sc SpanContext
}

func (c *spanCtx) Value(key any) any {
	if key == (spanCtxKey{}) {
		return &c.sc
	}
	return c.Context.Value(key)
}

// WithSpan attaches a trace span context to ctx. Transport decorators
// and the wire layer propagate it alongside the WithOp label.
func WithSpan(ctx context.Context, sc SpanContext) context.Context {
	return &spanCtx{ctx, sc}
}

// A SpanNode is the node WithSpan adds, for an owner that attaches one
// span after another and re-points a node of its own instead of
// allocating one per span: rpcnet's server keeps one per connection,
// and obs keeps a traced op's in the op's scope. A context Attach
// returned is valid only until the next Attach.
type SpanNode struct{ n spanCtx }

// Attach re-points the node at parent and sc and returns it.
func (n *SpanNode) Attach(parent context.Context, sc SpanContext) context.Context {
	n.n = spanCtx{parent, sc}
	return &n.n
}

// CtxSpan returns the span context attached by WithSpan; the zero
// SpanContext (Valid() == false) means the caller is untraced.
func CtxSpan(ctx context.Context) SpanContext {
	if sc, ok := ctx.Value(spanCtxKey{}).(*SpanContext); ok {
		return *sc
	}
	return SpanContext{}
}
