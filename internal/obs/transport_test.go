package obs

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"relidev/internal/clock"
	"relidev/internal/protocol"
)

type fakeReq struct{}

func (fakeReq) Kind() string { return "fake" }

type fakeResp struct{}

func (fakeResp) RespKind() string { return "fake" }

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

// Test sentinels for the classifier registry. Registered once for the
// whole test binary (registration is append-only and global, like the
// faultnet/rpcnet init registrations it stands in for).
var (
	errTestInjected = errors.New("obs_test: injected")
	errTestExotic   = errors.New("obs_test: exotic")
)

func init() {
	RegisterErrorClassifier(func(err error) (string, bool) {
		if errors.Is(err, errTestInjected) {
			return ClassInjected, true
		}
		return "", false
	})
	RegisterErrorClassifier(func(err error) (string, bool) {
		if errors.Is(err, errTestExotic) {
			return "exotic", true // not a pre-resolved class
		}
		return "", false
	})
}

func TestClassifyError(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, "ok"},
		{protocol.ErrSiteDown, ClassDown},
		{protocol.ErrSiteUnreachable, ClassUnreachable},
		{protocol.ErrTransient, ClassTransient},
		{context.Canceled, ClassCanceled},
		{context.DeadlineExceeded, ClassCanceled},
		{errors.New("mystery"), ClassOther},
		// Registered classifiers win even when the error also wraps a
		// protocol sentinel (injection is the more specific fact).
		{fmt.Errorf("%w: %w", errTestInjected, protocol.ErrSiteDown), ClassInjected},
		{errTestExotic, "exotic"},
	}
	for _, c := range cases {
		if got := classifyError(c.err); got != c.want {
			t.Errorf("classifyError(%v) = %q, want %q", c.err, got, c.want)
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
			3: {Err: errTestInjected},
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
	inner.fetchErr = errTestExotic
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
		{"call", ClassUnreachable}: 1,
		// "exotic" is not pre-resolved: it falls back to ClassOther.
		{"fetch", ClassOther}:         1,
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
	for _, peer := range []string{"site1", "site2", "site3"} {
		found := false
		for _, h := range snap.Histograms {
			if h.Name == MetricTransportPeerLatency && h.Labels["peer"] == peer && h.Count == 1 {
				found = true
			}
		}
		if !found {
			t.Errorf("missing peer latency observation for %s", peer)
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
