package obs

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"relidev/internal/clock"
	"relidev/internal/protocol"
)

// fakeReq and fakeResp borrow a real message's sealed methods and keep
// types of their own.
type fakeReq struct{ protocol.StatusRequest }

func (fakeReq) Kind() string { return "fake" }

type fakeResp struct{ protocol.PutReply }

// fakeTransport returns canned results and records the contexts it saw.
type fakeTransport struct {
	callErr  error
	fetchErr error
	results  map[protocol.SiteID]protocol.Result
	lastCtx  context.Context
}

func (f *fakeTransport) Call(ctx context.Context, from, to protocol.SiteID, req protocol.Request) (protocol.Response, error) {
	f.lastCtx = ctx
	if f.callErr != nil {
		return nil, f.callErr
	}
	return fakeResp{}, nil
}

func (f *fakeTransport) Fetch(ctx context.Context, from, to protocol.SiteID, req protocol.Request) (protocol.Response, error) {
	f.lastCtx = ctx
	if f.fetchErr != nil {
		return nil, f.fetchErr
	}
	return fakeResp{}, nil
}

func (f *fakeTransport) Broadcast(ctx context.Context, from protocol.SiteID, dests []protocol.SiteID, req protocol.Request) map[protocol.SiteID]protocol.Result {
	f.lastCtx = ctx
	return f.results
}

func (f *fakeTransport) Notify(ctx context.Context, from protocol.SiteID, dests []protocol.SiteID, req protocol.Request) map[protocol.SiteID]protocol.Result {
	f.lastCtx = ctx
	return f.results
}

// TestClassifyError is the failure taxonomy, one row per class: an
// injected fault outranks the sentinel it imitates, and a delivered
// remote error is neither down nor transient.
func TestClassifyError(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, "ok"},
		{fmt.Errorf("dial: %w", protocol.ErrSiteDown), ClassDown},
		{fmt.Errorf("partition: %w", protocol.ErrSiteUnreachable), ClassUnreachable},
		{fmt.Errorf("%w: %w", protocol.ErrSevered, protocol.ErrTransient), ClassTransient},
		{fmt.Errorf("%w: lost reply: %w", protocol.ErrInjected, protocol.ErrTransient), ClassInjected},
		{fmt.Errorf("%w: partition: %w", protocol.ErrInjected, protocol.ErrSiteUnreachable), ClassInjected},
		{fmt.Errorf("bad payload: %w", protocol.ErrRemote), ClassRemote},
		{context.Canceled, ClassCanceled},
		{context.DeadlineExceeded, ClassCanceled},
		{errors.New("mystery"), ClassOther},
	}
	seen := map[string]bool{}
	for _, c := range cases {
		got := classifyError(c.err)
		if got != c.want {
			t.Errorf("classifyError(%v) = %q, want %q", c.err, got, c.want)
		}
		seen[got] = true
	}
	for _, class := range errorClasses {
		if !seen[class] {
			t.Errorf("no row classifies as %q", class)
		}
	}
}

func TestWrapTransportNilObserver(t *testing.T) {
	inner := &fakeTransport{}
	if got := WrapTransport(nil, "sim", inner, nil); got != protocol.Transport(inner) {
		t.Fatal("nil observer should return inner unchanged")
	}
}

func TestMeteredTransportCounts(t *testing.T) {
	o := New(WithClock(clock.NewManual()))
	inner := &fakeTransport{
		results: map[protocol.SiteID]protocol.Result{
			1: {Resp: fakeResp{}},
			2: {Err: protocol.ErrSiteDown},
			3: {Err: fmt.Errorf("%w: %w", protocol.ErrInjected, protocol.ErrTransient)},
		},
	}
	peers := []protocol.SiteID{0, 1, 2, 3}
	tr := WrapTransport(o, "sim", inner, peers)
	if _, ok := tr.(*MeteredTransport); !ok {
		t.Fatalf("WrapTransport returned %T", tr)
	}

	ctx := context.Background()
	if _, err := tr.Call(ctx, 0, 1, fakeReq{}); err != nil {
		t.Fatal(err)
	}
	inner.callErr = protocol.ErrSiteUnreachable
	if _, err := tr.Call(ctx, 0, 2, fakeReq{}); err == nil {
		t.Fatal("expected call error")
	}
	inner.fetchErr = fmt.Errorf("bad payload: %w", protocol.ErrRemote)
	if _, err := tr.Fetch(ctx, 0, 3, fakeReq{}); err == nil {
		t.Fatal("expected fetch error")
	}
	tr.Broadcast(ctx, 0, peers[1:], fakeReq{})
	tr.Notify(ctx, 0, peers[1:], fakeReq{})

	snap := o.Snapshot()
	wantCounts := map[string]uint64{
		"call":      2,
		"fetch":     1,
		"broadcast": 1,
		"notify":    1,
	}
	for m, want := range wantCounts {
		if got := snap.CounterTotal(MetricTransportOps, L("method", m)); got != want {
			t.Errorf("%s ops = %d, want %d", m, got, want)
		}
	}
	wantErrs := map[[2]string]uint64{
		{"call", ClassUnreachable}:    1,
		{"fetch", ClassRemote}:        1,
		{"broadcast", ClassDown}:      1,
		{"broadcast", ClassInjected}:  1,
		{"notify", ClassDown}:         1,
		{"notify", ClassInjected}:     1,
		{"call", ClassDown}:           0,
		{"broadcast", ClassTransient}: 0,
		{"notify", ClassUnreachable}:  0,
		{"fetch", ClassInjected}:      0,
	}
	for k, want := range wantErrs {
		got := snap.CounterTotal(MetricTransportErrors, L("method", k[0]), L("class", k[1]))
		if got != want {
			t.Errorf("%s/%s errors = %d, want %d", k[0], k[1], got, want)
		}
	}
	// Latency: one observation per invocation, and peer series for the
	// two Call destinations plus the one Fetch destination.
	var latTotal uint64
	for _, h := range snap.Histograms {
		switch h.Name {
		case MetricTransportLatency:
			latTotal += h.Count
		}
	}
	if latTotal != 5 {
		t.Errorf("method latency observations = %d, want 5", latTotal)
	}
	// Every declared peer has its series from WrapTransport on, site0's
	// still empty.
	for peer, want := range map[string]uint64{"site0": 0, "site1": 1, "site2": 1, "site3": 1} {
		found := false
		for _, h := range snap.Histograms {
			if h.Name == MetricTransportPeerLatency && h.Labels["peer"] == peer && h.Count == want {
				found = true
			}
		}
		if !found {
			t.Errorf("no peer latency series for %s with %d observations", peer, want)
		}
	}
	// The op label flows through untouched.
	labelled := protocol.WithOp(ctx, protocol.OpWrite)
	inner.callErr = nil
	if _, err := tr.Call(labelled, 0, 1, fakeReq{}); err != nil {
		t.Fatal(err)
	}
	if got := protocol.CtxOp(inner.lastCtx); got != protocol.OpWrite {
		t.Errorf("op label did not survive the decorator: %q", got)
	}
}

// Calls to peers outside the declared set must not panic and still
// count under the method series.
func TestMeteredTransportUndeclaredPeer(t *testing.T) {
	o := New()
	inner := &fakeTransport{}
	tr := WrapTransport(o, "sim", inner, []protocol.SiteID{0, 1})
	if _, err := tr.Call(context.Background(), 0, 99, fakeReq{}); err != nil {
		t.Fatal(err)
	}
	if got := o.Snapshot().CounterTotal(MetricTransportOps, L("method", "call")); got != 1 {
		t.Fatalf("call ops = %d, want 1", got)
	}
}

// parkingTransport answers every Call at once, except one to parkTo,
// which reports its context on entered and holds until release closes.
// Each call reports its context and the span it carried on seen.
type parkingTransport struct {
	fakeTransport
	parkTo  protocol.SiteID
	entered chan context.Context
	release chan struct{}
	seen    chan seenCall
}

type seenCall struct {
	ctx context.Context
	sc  protocol.SpanContext
}

func (p *parkingTransport) Call(ctx context.Context, from, to protocol.SiteID, req protocol.Request) (protocol.Response, error) {
	if to == p.parkTo {
		p.entered <- ctx
		<-p.release
	}
	p.seen <- seenCall{ctx, protocol.CtxSpan(ctx)}
	return fakeResp{}, nil
}

// TestTracedOpCallsShareOneNode: a traced op's transport calls ride the
// call node of its scope, and a call made while another holds it — two
// calls overlapping on goroutines of their own, as the recovery
// exchange's next-page request runs on one — gets a node of its own.
// Both spans are distinct children of the op span, the parked call's
// context still names its own span after the other call ran, the node
// is free again once its call ends, and a call made outside any op is
// still traced.
func TestTracedOpCallsShareOneNode(t *testing.T) {
	o := New(WithClock(clock.NewManual()), WithTracing(64))
	inner := &parkingTransport{parkTo: 1, entered: make(chan context.Context),
		release: make(chan struct{}), seen: make(chan seenCall, 4)}
	tr := WrapTransport(o, "sim", inner, []protocol.SiteID{0, 1, 2})
	ctx, op := o.SchemeSite("ac", 0).StartOp(context.Background(), new(Scope), protocol.OpRecovery, NoBlock, o.Now())
	opSpan := protocol.CtxSpan(ctx)

	done := make(chan error)
	go func() {
		_, err := tr.Call(ctx, 0, 1, fakeReq{})
		done <- err
	}()
	parked := <-inner.entered
	first := protocol.CtxSpan(parked)
	if _, err := tr.Call(ctx, 0, 2, fakeReq{}); err != nil {
		t.Fatal(err)
	}
	second := <-inner.seen
	if second.ctx == parked {
		t.Fatal("a call made while the node was held was handed the held node")
	}
	if again := protocol.CtxSpan(parked); again != first {
		t.Fatalf("the parked call's span moved from %+v to %+v while another call ran", first, again)
	}
	close(inner.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	<-inner.seen
	if _, err := tr.Call(ctx, 0, 2, fakeReq{}); err != nil {
		t.Fatal(err)
	}
	third := <-inner.seen
	if third.ctx != parked {
		t.Fatal("a call after the node was released did not get the node")
	}
	op.Done(1, nil)
	if _, err := tr.Call(context.Background(), 0, 2, fakeReq{}); err != nil {
		t.Fatal(err)
	}
	if bare := (<-inner.seen).sc; !bare.Valid() || bare.TraceID == opSpan.TraceID {
		t.Fatalf("a call outside any op carries %+v, want a trace of its own", bare)
	}

	ids := map[uint64]bool{}
	for _, sc := range []protocol.SpanContext{first, second.sc, third.sc} {
		if !sc.Valid() || sc.TraceID != opSpan.TraceID || sc.SpanID == opSpan.SpanID || ids[sc.SpanID] {
			t.Fatalf("call spans %+v, %+v, %+v under op span %+v: want three distinct children", first, second.sc, third.sc, opSpan)
		}
		ids[sc.SpanID] = true
	}
	rpcs := 0
	for _, e := range o.Tracer().Events() {
		if e.Kind != EvRPC || e.TraceID != opSpan.TraceID {
			continue
		}
		rpcs++
		if !ids[e.SpanID] || e.ParentID != opSpan.SpanID {
			t.Errorf("rpc event span %d parent %d; want one of the calls' spans, parented to the op's %d", e.SpanID, e.ParentID, opSpan.SpanID)
		}
	}
	if rpcs != 3 {
		t.Errorf("%d rpc events in the op's trace, want 3", rpcs)
	}
}
