package faultnet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"relidev/internal/protocol"
	"relidev/internal/simnet"
)

// echoHandler answers StatusRequests and counts deliveries.
type echoHandler struct {
	id    protocol.SiteID
	calls atomic.Int64
}

func (h *echoHandler) Handle(ctx context.Context, from protocol.SiteID, req protocol.Request) (protocol.Response, error) {
	h.calls.Add(1)
	return protocol.StatusReply{State: protocol.StateAvailable, VersionSum: uint64(h.id)}, nil
}

func buildSim(t *testing.T, n int) (*simnet.Network, []*echoHandler) {
	t.Helper()
	net := simnet.New(simnet.Multicast)
	hs := make([]*echoHandler, n)
	for i := 0; i < n; i++ {
		hs[i] = &echoHandler{id: protocol.SiteID(i)}
		net.Attach(protocol.SiteID(i), hs[i])
	}
	return net, hs
}

// runWorkload issues the same sequential call pattern and records, per
// call, whether it failed and with what error text.
func runWorkload(t *testing.T, tr protocol.Transport, sites, calls int) []string {
	t.Helper()
	ctx := context.Background()
	var trace []string
	for i := 0; i < calls; i++ {
		from := protocol.SiteID(i % sites)
		to := protocol.SiteID((i + 1) % sites)
		_, err := tr.Call(ctx, from, to, protocol.StatusRequest{})
		if err != nil {
			trace = append(trace, fmt.Sprintf("%d:%v", i, err))
		} else {
			trace = append(trace, fmt.Sprintf("%d:ok", i))
		}
	}
	return trace
}

func TestDeterministicReplaySameSeed(t *testing.T) {
	cfg := Config{Seed: 42, DropProb: 0.2, ReplyLossProb: 0.1, TimeoutProb: 0.1}
	run := func() ([]string, Stats) {
		net, _ := buildSim(t, 3)
		fn, err := New(net, cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		trace := runWorkload(t, fn, 3, 400)
		return trace, fn.Stats()
	}
	t1, s1 := run()
	t2, s2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged across identical runs: %+v vs %+v", s1, s2)
	}
	if s1.Total() == 0 {
		t.Fatal("no faults injected at 40% aggregate probability over 400 calls")
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("call %d diverged: %q vs %q", i, t1[i], t2[i])
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	run := func(seed int64) []string {
		net, _ := buildSim(t, 3)
		fn, err := New(net, Config{Seed: seed, DropProb: 0.3})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return runWorkload(t, fn, 3, 200)
	}
	a, b := run(1), run(2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical fault schedules")
	}
}

func TestInjectedErrorsAreTransient(t *testing.T) {
	net, _ := buildSim(t, 2)
	fn, err := New(net, Config{Seed: 7, DropProb: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	_, err = fn.Call(context.Background(), 0, 1, protocol.StatusRequest{})
	if !errors.Is(err, protocol.ErrInjected) {
		t.Fatalf("err = %v, want protocol.ErrInjected", err)
	}
	if !errors.Is(err, protocol.ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient", err)
	}
}

func TestReplyLossDeliversButHidesOutcome(t *testing.T) {
	net, hs := buildSim(t, 2)
	fn, err := New(net, Config{Seed: 7, ReplyLossProb: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	_, err = fn.Call(context.Background(), 0, 1, protocol.StatusRequest{})
	if !errors.Is(err, protocol.ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient", err)
	}
	if got := hs[1].calls.Load(); got != 1 {
		t.Fatalf("destination handled %d calls, want 1 (request delivered, reply lost)", got)
	}
}

// TestPartitionSeparatesGroupsUntilHeal pins the partition accounting
// the chaos digests depend on. Over simnet a partition is a fault rule,
// so it acts after routing: the request leaves the sender and is charged,
// no reply comes back, and a multicast broadcast is charged once however
// many of its legs the partition blocks.
func TestPartitionSeparatesGroupsUntilHeal(t *testing.T) {
	net, _ := buildSim(t, 3)
	fn, err := New(net, Config{Seed: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	fn.SetPartition(2, 1)
	ctx := context.Background()
	_, err = fn.Call(ctx, 0, 2, protocol.StatusRequest{})
	if !errors.Is(err, protocol.ErrInjected) || !errors.Is(err, protocol.ErrSiteUnreachable) {
		t.Fatalf("cross-partition call: %v, want protocol.ErrInjected and ErrSiteUnreachable", err)
	}
	if st := net.Stats(); st.Requests != 1 || st.Replies != 0 {
		t.Fatalf("cross-partition call charged %d requests, %d replies; want 1, 0", st.Requests, st.Replies)
	}
	if _, err := fn.Call(ctx, 0, 1, protocol.StatusRequest{}); err != nil {
		t.Fatalf("same-partition call: %v", err)
	}

	net.ResetStats()
	res := fn.Broadcast(ctx, 0, []protocol.SiteID{1, 2}, protocol.StatusRequest{})
	if res[1].Err != nil {
		t.Fatalf("same-partition leg: %v", res[1].Err)
	}
	if err := res[2].Err; !errors.Is(err, protocol.ErrInjected) || !errors.Is(err, protocol.ErrSiteUnreachable) {
		t.Fatalf("cross-partition leg: %v, want protocol.ErrInjected and ErrSiteUnreachable", err)
	}
	if st := net.Stats(); st.Requests != 1 || st.Replies != 1 {
		t.Fatalf("half-blocked broadcast charged %d requests, %d replies; want 1, 1", st.Requests, st.Replies)
	}

	net.ResetStats()
	fn.SetPartition(1, 1)
	for to, r := range fn.Broadcast(ctx, 0, []protocol.SiteID{1, 2}, protocol.StatusRequest{}) {
		if !errors.Is(r.Err, protocol.ErrSiteUnreachable) {
			t.Fatalf("leg to %v: %v, want ErrSiteUnreachable", to, r.Err)
		}
	}
	if st := net.Stats(); st.Requests != 1 || st.Replies != 0 {
		t.Fatalf("fully blocked broadcast charged %d requests, %d replies; want 1, 0", st.Requests, st.Replies)
	}
	// One blocked call, one blocked leg, then two.
	if got := fn.Stats().Partitions; got != 4 {
		t.Fatalf("Partitions = %d, want 4 (one per blocked leg)", got)
	}

	fn.Heal()
	if _, err := fn.Call(ctx, 0, 2, protocol.StatusRequest{}); err != nil {
		t.Fatalf("call after heal: %v", err)
	}
}

func TestLatencyInjectionDelaysButDelivers(t *testing.T) {
	net, hs := buildSim(t, 2)
	fn, err := New(net, Config{Seed: 3, LatencyProb: 1, MaxLatency: time.Millisecond})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 10; i++ {
		if _, err := fn.Call(context.Background(), 0, 1, protocol.StatusRequest{}); err != nil {
			t.Fatalf("delayed call %d: %v", i, err)
		}
	}
	if got := hs[1].calls.Load(); got != 10 {
		t.Fatalf("delivered %d calls, want 10", got)
	}
	if s := fn.Stats(); s.Delays != 10 {
		t.Fatalf("Delays = %d, want 10", s.Delays)
	}
}

func TestConfigValidation(t *testing.T) {
	net, _ := buildSim(t, 2)
	if _, err := New(net, Config{DropProb: 0.7, TimeoutProb: 0.5}); err == nil {
		t.Fatal("accepted probabilities summing past 1")
	}
	if _, err := New(net, Config{DropProb: -0.1}); err == nil {
		t.Fatal("accepted negative probability")
	}
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("accepted nil inner transport")
	}
}

// plainTransport is a minimal non-simnet transport, standing in for
// rpcnet so wrap-mode (per-destination decoration) is exercised without
// TCP.
type plainTransport struct {
	handlers map[protocol.SiteID]protocol.Handler
}

func (p *plainTransport) Call(ctx context.Context, from, to protocol.SiteID, req protocol.Request) (protocol.Response, error) {
	h, ok := p.handlers[to]
	if !ok {
		return nil, protocol.ErrSiteDown
	}
	return h.Handle(ctx, from, req)
}

func (p *plainTransport) Fetch(ctx context.Context, from, to protocol.SiteID, req protocol.Request) (protocol.Response, error) {
	return p.Call(ctx, from, to, req)
}

func (p *plainTransport) Broadcast(ctx context.Context, from protocol.SiteID, dests []protocol.SiteID, req protocol.Request) map[protocol.SiteID]protocol.Result {
	out := make(map[protocol.SiteID]protocol.Result, len(dests))
	for _, to := range dests {
		resp, err := p.Call(ctx, from, to, req)
		out[to] = protocol.Result{Resp: resp, Err: err}
	}
	return out
}

func (p *plainTransport) Notify(ctx context.Context, from protocol.SiteID, dests []protocol.SiteID, req protocol.Request) map[protocol.SiteID]protocol.Result {
	return p.Broadcast(ctx, from, dests, req)
}

func TestWrapModeDecoratesPerDestination(t *testing.T) {
	hs := []*echoHandler{{id: 0}, {id: 1}, {id: 2}}
	inner := &plainTransport{handlers: map[protocol.SiteID]protocol.Handler{
		0: hs[0], 1: hs[1], 2: hs[2],
	}}
	fn, err := New(inner, Config{Seed: 9})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	fn.SetPartition(2, 1)
	res := fn.Broadcast(context.Background(), 0, []protocol.SiteID{1, 2}, protocol.StatusRequest{})
	if res[1].Err != nil {
		t.Fatalf("healthy destination errored: %v", res[1].Err)
	}
	if !errors.Is(res[2].Err, protocol.ErrSiteUnreachable) {
		t.Fatalf("partitioned destination: %v, want ErrSiteUnreachable", res[2].Err)
	}
	if got := hs[2].calls.Load(); got != 0 {
		t.Fatalf("partitioned destination handled %d calls, want 0", got)
	}
}

func TestWrapModeDropNeverReachesInner(t *testing.T) {
	hs := []*echoHandler{{id: 0}, {id: 1}}
	inner := &plainTransport{handlers: map[protocol.SiteID]protocol.Handler{0: hs[0], 1: hs[1]}}
	fn, err := New(inner, Config{Seed: 9, DropProb: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := fn.Call(context.Background(), 0, 1, protocol.StatusRequest{}); !errors.Is(err, protocol.ErrTransient) {
		t.Fatalf("err = %v, want ErrTransient", err)
	}
	if got := hs[1].calls.Load(); got != 0 {
		t.Fatalf("inner handled %d calls after injected drop, want 0", got)
	}
}

// TestConcurrentPartitionChanges races the partition map and the
// injection switch against live broadcasts through simnet with the rule
// installed, under the race detector.
func TestConcurrentPartitionChanges(t *testing.T) {
	net, _ := buildSim(t, 3)
	fn, err := New(net, Config{Seed: 5, DropProb: 0.2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()
	const rounds = 200
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			fn.SetPartition(1, i%2)
			if i%3 == 0 {
				fn.Heal()
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			fn.SetInjection(i%2 == 0)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			fn.Broadcast(ctx, 0, []protocol.SiteID{1, 2}, protocol.StatusRequest{})
			_ = fn.Stats()
		}
	}()
	wg.Wait()
	// A multicast is charged once whatever its legs met.
	if st := net.Stats(); st.Requests != rounds {
		t.Fatalf("requests = %d, want %d", st.Requests, rounds)
	}
}
