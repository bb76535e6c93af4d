package rpcnet

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"relidev/internal/protocol"
)

// countingHandler counts the requests a replica handles and, while
// stall is set, holds each one until release is closed.
type countingHandler struct {
	protocol.Handler
	handled atomic.Int32
	stall   atomic.Bool
	release chan struct{}
}

func (h *countingHandler) Handle(ctx context.Context, from protocol.SiteID, req protocol.Request) (protocol.Response, error) {
	h.handled.Add(1)
	if h.stall.Load() {
		<-h.release
	}
	return h.Handler.Handle(ctx, from, req)
}

// startCounted serves n counting replicas, sites 1..n, and returns
// their handlers and addresses. Every stalled handler is released
// before the servers close.
func startCounted(t *testing.T, n int) ([]*countingHandler, map[protocol.SiteID]string) {
	t.Helper()
	release := make(chan struct{})
	hs := make([]*countingHandler, n)
	addrs := make(map[protocol.SiteID]string, n)
	for i := range hs {
		id := protocol.SiteID(i + 1)
		hs[i] = &countingHandler{Handler: newReplica(t, id), release: release}
		srv, err := Serve("127.0.0.1:0", hs[i])
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[id] = srv.Addr()
	}
	t.Cleanup(func() { close(release) })
	return hs, addrs
}

// legRecorder is a PhaseRecorder that keeps every charge.
type legRecorder struct {
	mu        sync.Mutex
	rtt       map[protocol.SiteID]int64
	straggler int
}

func (r *legRecorder) Now() int64 { return time.Now().UnixNano() }

func (r *legRecorder) FanOutStart() int64 { return r.Now() }

func (r *legRecorder) FanOutEnd(int64) {}

func (r *legRecorder) RecordPhase(phase string, ns int64) {
	if phase == protocol.PhaseStraggler {
		r.mu.Lock()
		r.straggler++
		r.mu.Unlock()
	}
}

func (r *legRecorder) RecordPeerRTT(to protocol.SiteID, ns int64) {
	r.mu.Lock()
	r.rtt[to] = ns
	r.mu.Unlock()
}

// TestBroadcastStalledLegDelaysNoOther: over pooled streams, one peer's
// handler stalls past the call timeout. It is the first leg read, so
// by the time its read gives up the round's deadline has passed and
// the other three replies wait in their sockets. Those three must
// still be read, not failed and re-sent: each healthy handler runs
// exactly once. The broadcast ends about one call timeout in, and the
// stalled leg's outcome is unknown (ErrSevered), not a verdict on the
// peer (ErrTransient).
func TestBroadcastStalledLegDelaysNoOther(t *testing.T) {
	hs, addrs := startCounted(t, 4)
	cli, err := NewClient(0, addrs, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx, dests := context.Background(), []protocol.SiteID{1, 2, 3, 4}
	for id, r := range cli.Broadcast(ctx, 0, dests, protocol.VoteRequest{Block: 1}) {
		if r.Err != nil {
			t.Fatalf("warm-up leg %v: %v", id, r.Err)
		}
	}
	for _, h := range hs {
		h.handled.Store(0)
	}
	hs[0].stall.Store(true)

	start := time.Now()
	res := cli.Broadcast(ctx, 0, dests, protocol.VoteRequest{Block: 1})
	if elapsed := time.Since(start); elapsed > 300*time.Millisecond {
		t.Errorf("broadcast with one stalled leg took %v, want one 200ms call timeout", elapsed)
	}
	if err := res[1].Err; !errors.Is(err, protocol.ErrTransient) || !errors.Is(err, protocol.ErrSevered) {
		t.Errorf("stalled leg = %v, want ErrTransient and ErrSevered", err)
	}
	for _, id := range dests[1:] {
		if r := res[id]; r.Err != nil {
			t.Errorf("healthy leg %v: %v", id, r.Err)
		} else if _, ok := r.Resp.(protocol.VoteReply); !ok {
			t.Errorf("healthy leg %v answered %T", id, r.Resp)
		}
		if n := hs[id-1].handled.Load(); n != 1 {
			t.Errorf("healthy peer %v handled the request %d times, want once", id, n)
		}
	}
}

// TestBroadcastMixesPooledAndFreshLegs: two peers have pooled streams,
// two were never dialled. Every leg succeeds, and each leg's round trip
// and one straggler wait are charged to the operation's recorder.
func TestBroadcastMixesPooledAndFreshLegs(t *testing.T) {
	hs, addrs := startCounted(t, 4)
	cli, err := NewClient(0, addrs, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for _, id := range []protocol.SiteID{2, 4} {
		if _, err := cli.Call(context.Background(), 0, id, protocol.StatusRequest{}); err != nil {
			t.Fatalf("pooling %v: %v", id, err)
		}
	}
	rec := &legRecorder{rtt: map[protocol.SiteID]int64{}}
	ctx := &protocol.OpNode{Context: context.Background(), Scope: protocol.OpScope{Op: protocol.OpRead, Phases: rec}}
	dests := []protocol.SiteID{0, 1, 2, 3, 4}
	res := cli.Broadcast(ctx, 0, dests, protocol.VoteRequest{Block: 2})
	if len(res) != 4 {
		t.Fatalf("got %d results, want 4 (the sender is skipped)", len(res))
	}
	for _, id := range dests[1:] {
		if r := res[id]; r.Err != nil {
			t.Errorf("leg %v: %v", id, r.Err)
		}
		if rtt, ok := rec.rtt[id]; !ok || rtt <= 0 {
			t.Errorf("leg %v round trip = %d (charged %v), want > 0", id, rtt, ok)
		}
		want := int32(1)
		if id%2 == 0 {
			want++ // the call that pooled its stream
		}
		if n := hs[id-1].handled.Load(); n != want {
			t.Errorf("peer %v handled %d requests, want %d", id, n, want)
		}
	}
	if rec.straggler != 1 {
		t.Errorf("straggler charged %d times, want once", rec.straggler)
	}
}

// TestBroadcastRetriesStalePooledLeg: a peer restarted since its stream
// was pooled fails the broadcast's write or read on that stream; the
// leg is retried once on a fresh dial and the peer is not suspected.
func TestBroadcastRetriesStalePooledLeg(t *testing.T) {
	_, addrs := startCluster(t, 3)
	rep := newReplica(t, 3)
	srv, err := Serve("127.0.0.1:0", rep)
	if err != nil {
		t.Fatal(err)
	}
	addrs[3] = srv.Addr()
	cli, err := NewClient(0, addrs, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx, dests := context.Background(), []protocol.SiteID{1, 2, 3}
	for id, r := range cli.Broadcast(ctx, 0, dests, protocol.StatusRequest{}) {
		if r.Err != nil {
			t.Fatalf("warm-up leg %v: %v", id, r.Err)
		}
	}
	srv.Close()
	srv2, err := Serve(addrs[3], rep)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer srv2.Close()
	for id, r := range cli.Broadcast(ctx, 0, dests, protocol.StatusRequest{}) {
		if r.Err != nil {
			t.Errorf("leg %v over a stale stream: %v, want a transparent retry", id, r.Err)
		}
	}
	if cli.SuspectSet().Has(3) {
		t.Fatal("live peer entered the suspect list over one stale stream")
	}
}
