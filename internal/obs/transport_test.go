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
