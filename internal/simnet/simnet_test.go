package simnet

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"relidev/internal/protocol"
)

// echoHandler records calls and answers StatusRequests. Concurrent
// callers invoke a handler from several goroutines at once, so the
// counter is atomic.
type echoHandler struct {
	id    protocol.SiteID
	calls atomic.Int64
	fail  error
}

func (h *echoHandler) Handle(ctx context.Context, from protocol.SiteID, req protocol.Request) (protocol.Response, error) {
	h.calls.Add(1)
	if h.fail != nil {
		return nil, h.fail
	}
	return protocol.StatusReply{State: protocol.StateAvailable, VersionSum: uint64(h.id)}, nil
}

func buildNet(t *testing.T, mode Mode, n int) (*Network, []*echoHandler) {
	t.Helper()
	net := New(mode)
	hs := make([]*echoHandler, n)
	for i := 0; i < n; i++ {
		hs[i] = &echoHandler{id: protocol.SiteID(i)}
		net.Attach(protocol.SiteID(i), hs[i])
	}
	return net, hs
}

func remotes(n int, self protocol.SiteID) []protocol.SiteID {
	out := make([]protocol.SiteID, 0, n-1)
	for i := 0; i < n; i++ {
		if protocol.SiteID(i) != self {
			out = append(out, protocol.SiteID(i))
		}
	}
	return out
}

func TestCallCountsTwoTransmissions(t *testing.T) {
	net, hs := buildNet(t, Multicast, 3)
	resp, err := net.Call(context.Background(), 0, 1, protocol.StatusRequest{})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if _, ok := resp.(protocol.StatusReply); !ok {
		t.Fatalf("resp = %T, want StatusReply", resp)
	}
	if hs[1].calls.Load() != 1 {
		t.Fatalf("handler calls = %d, want 1", hs[1].calls.Load())
	}
	st := net.Stats()
	if st.Transmissions != 2 || st.Requests != 1 || st.Replies != 1 {
		t.Fatalf("stats = %+v, want 2/1/1", st)
	}
}

func TestSelfCallIsFree(t *testing.T) {
	net, hs := buildNet(t, Multicast, 2)
	if _, err := net.Call(context.Background(), 0, 0, protocol.StatusRequest{}); err != nil {
		t.Fatalf("self Call: %v", err)
	}
	if hs[0].calls.Load() != 1 {
		t.Fatalf("handler calls = %d, want 1", hs[0].calls.Load())
	}
	if st := net.Stats(); st.Transmissions != 0 {
		t.Fatalf("self call cost %d transmissions, want 0", st.Transmissions)
	}
}

func TestFetchCountsOneTransmission(t *testing.T) {
	net, _ := buildNet(t, Multicast, 2)
	if _, err := net.Fetch(context.Background(), 0, 1, protocol.FetchRequest{Block: 3}); err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if st := net.Stats(); st.Transmissions != 1 || st.Replies != 1 {
		t.Fatalf("stats = %+v, want exactly one reply transmission", st)
	}
}

func TestBroadcastAccountingMulticast(t *testing.T) {
	// 1 request transmission + one reply per up destination.
	net, _ := buildNet(t, Multicast, 5)
	net.SetUp(3, false)
	res := net.Broadcast(context.Background(), 0, remotes(5, 0), protocol.StatusRequest{})
	if len(res) != 4 {
		t.Fatalf("results = %d, want 4", len(res))
	}
	if !errors.Is(res[3].Err, protocol.ErrSiteDown) {
		t.Fatalf("down site error = %v, want ErrSiteDown", res[3].Err)
	}
	st := net.Stats()
	if st.Requests != 1 {
		t.Fatalf("requests = %d, want 1 (multicast)", st.Requests)
	}
	if st.Replies != 3 {
		t.Fatalf("replies = %d, want 3 (three up destinations)", st.Replies)
	}
	if st.Transmissions != 4 {
		t.Fatalf("total = %d, want 4", st.Transmissions)
	}
}

func TestBroadcastAccountingUnicast(t *testing.T) {
	// One request per destination — even down ones: the sender cannot
	// know who is up — plus one reply per up destination.
	net, _ := buildNet(t, Unicast, 5)
	net.SetUp(3, false)
	net.Broadcast(context.Background(), 0, remotes(5, 0), protocol.StatusRequest{})
	st := net.Stats()
	if st.Requests != 4 {
		t.Fatalf("requests = %d, want 4 (unicast)", st.Requests)
	}
	if st.Replies != 3 {
		t.Fatalf("replies = %d, want 3", st.Replies)
	}
}

func TestNotifyChargesNoReplies(t *testing.T) {
	for _, mode := range []Mode{Multicast, Unicast} {
		t.Run(mode.String(), func(t *testing.T) {
			net, hs := buildNet(t, mode, 4)
			res := net.Notify(context.Background(), 0, remotes(4, 0), protocol.StatusRequest{})
			for id, r := range res {
				if r.Err != nil {
					t.Fatalf("site %v: %v", id, r.Err)
				}
			}
			for _, h := range hs[1:] {
				if h.calls.Load() != 1 {
					t.Fatalf("handler calls = %d, want 1", h.calls.Load())
				}
			}
			st := net.Stats()
			wantReq := uint64(1)
			if mode == Unicast {
				wantReq = 3
			}
			if st.Requests != wantReq || st.Replies != 0 {
				t.Fatalf("mode %v stats = %+v, want req %d replies 0", mode, st, wantReq)
			}
		})
	}
}

func TestDownSiteDoesNotAnswer(t *testing.T) {
	net, hs := buildNet(t, Multicast, 2)
	net.SetUp(1, false)
	_, err := net.Call(context.Background(), 0, 1, protocol.StatusRequest{})
	if !errors.Is(err, protocol.ErrSiteDown) {
		t.Fatalf("err = %v, want ErrSiteDown", err)
	}
	if hs[1].calls.Load() != 0 {
		t.Fatal("down site's handler was invoked")
	}
	net.SetUp(1, true)
	if _, err := net.Call(context.Background(), 0, 1, protocol.StatusRequest{}); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
}

func TestPartitionBlocksTraffic(t *testing.T) {
	net, _ := buildNet(t, Multicast, 3)
	net.SetPartition(2, 1)
	_, err := net.Call(context.Background(), 0, 2, protocol.StatusRequest{})
	if !errors.Is(err, protocol.ErrSiteUnreachable) {
		t.Fatalf("err = %v, want ErrSiteUnreachable", err)
	}
	// Same partition still works.
	if _, err := net.Call(context.Background(), 0, 1, protocol.StatusRequest{}); err != nil {
		t.Fatalf("same-partition call: %v", err)
	}
	net.HealPartitions()
	if _, err := net.Call(context.Background(), 0, 2, protocol.StatusRequest{}); err != nil {
		t.Fatalf("after heal: %v", err)
	}
}

func TestHandlerErrorProducesNoReplyTraffic(t *testing.T) {
	net, hs := buildNet(t, Multicast, 2)
	hs[1].fail = fmt.Errorf("disk on fire")
	if _, err := net.Call(context.Background(), 0, 1, protocol.StatusRequest{}); err == nil {
		t.Fatal("Call swallowed handler error")
	}
	st := net.Stats()
	if st.Requests != 1 || st.Replies != 0 {
		t.Fatalf("stats = %+v, want 1 request, 0 replies", st)
	}
}

func TestCancelledContext(t *testing.T) {
	net, hs := buildNet(t, Multicast, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := net.Call(ctx, 0, 1, protocol.StatusRequest{}); err == nil {
		t.Fatal("Call with cancelled context succeeded")
	}
	res := net.Broadcast(ctx, 0, remotes(2, 0), protocol.StatusRequest{})
	if res[1].Err == nil {
		t.Fatal("Broadcast with cancelled context succeeded")
	}
	if hs[1].calls.Load() != 0 {
		t.Fatal("handler invoked despite cancelled context")
	}
	if st := net.Stats(); st.Transmissions != 0 {
		t.Fatalf("cancelled context cost %d transmissions", st.Transmissions)
	}
}

func TestResetStats(t *testing.T) {
	net, _ := buildNet(t, Multicast, 2)
	if _, err := net.Call(context.Background(), 0, 1, protocol.StatusRequest{}); err != nil {
		t.Fatal(err)
	}
	net.ResetStats()
	if st := net.Stats(); st.Transmissions != 0 || len(st.ByKind) != 0 {
		t.Fatalf("stats after reset = %+v", st)
	}
}

func TestStatsByKind(t *testing.T) {
	net, _ := buildNet(t, Unicast, 3)
	net.Broadcast(context.Background(), 0, remotes(3, 0), protocol.VoteRequest{Block: 1})
	st := net.Stats()
	if st.ByKind["vote"] != 2 {
		t.Fatalf("ByKind[vote] = %d, want 2", st.ByKind["vote"])
	}
}

func TestStatsSnapshotIsIsolated(t *testing.T) {
	net, _ := buildNet(t, Multicast, 2)
	net.Broadcast(context.Background(), 0, remotes(2, 0), protocol.VoteRequest{})
	snap := net.Stats()
	snap.ByKind["vote"] = 999
	if net.Stats().ByKind["vote"] == 999 {
		t.Fatal("Stats exposed internal map")
	}
}

// TestBroadcastSelfDestinationIsFree pins the §5 rule that a site never
// pays wire traffic to talk to itself: a unicast broadcast whose
// destination list includes the sender charges one request per *remote*
// destination, i.e. len(dests)-1, and the self entry produces no result.
func TestBroadcastSelfDestinationIsFree(t *testing.T) {
	net, hs := buildNet(t, Unicast, 4)
	dests := []protocol.SiteID{0, 1, 2, 3} // includes self (0)
	res := net.Broadcast(context.Background(), 0, dests, protocol.StatusRequest{})
	if len(res) != 3 {
		t.Fatalf("results = %d, want 3 (self filtered)", len(res))
	}
	if _, ok := res[0]; ok {
		t.Fatal("broadcast delivered to the sender itself")
	}
	if hs[0].calls.Load() != 0 {
		t.Fatal("sender handled its own broadcast")
	}
	st := net.Stats()
	if st.Requests != uint64(len(dests)-1) {
		t.Fatalf("requests = %d, want %d (self-send is free)", st.Requests, len(dests)-1)
	}
	if st.Replies != 3 {
		t.Fatalf("replies = %d, want 3", st.Replies)
	}
}

func TestEmptyBroadcastIsFree(t *testing.T) {
	net, _ := buildNet(t, Multicast, 1)
	net.Broadcast(context.Background(), 0, nil, protocol.StatusRequest{})
	if st := net.Stats(); st.Transmissions != 0 {
		t.Fatalf("empty broadcast cost %d transmissions", st.Transmissions)
	}
}

func TestModeString(t *testing.T) {
	if Multicast.String() != "multicast" || Unicast.String() != "unicast" {
		t.Fatal("Mode.String mismatch")
	}
	if Mode(0).String() != "mode(0)" {
		t.Fatal("invalid Mode.String mismatch")
	}
}

func TestFaultRuleDropRequest(t *testing.T) {
	net, hs := buildNet(t, Multicast, 2)
	sentinel := errors.New("injected")
	net.SetFaultRule(func(from, to protocol.SiteID, req protocol.Request) (FaultDecision, error) {
		return DropRequest, sentinel
	})
	_, err := net.Call(context.Background(), 0, 1, protocol.StatusRequest{})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want injected sentinel", err)
	}
	if hs[1].calls.Load() != 0 {
		t.Fatal("handler ran despite dropped request")
	}
	net.SetFaultRule(nil)
	if _, err := net.Call(context.Background(), 0, 1, protocol.StatusRequest{}); err != nil {
		t.Fatalf("call after rule removed: %v", err)
	}
}

func TestFaultRuleDropReplyRunsHandler(t *testing.T) {
	net, hs := buildNet(t, Multicast, 2)
	sentinel := errors.New("reply lost")
	net.SetFaultRule(func(from, to protocol.SiteID, req protocol.Request) (FaultDecision, error) {
		return DropReply, sentinel
	})
	_, err := net.Call(context.Background(), 0, 1, protocol.StatusRequest{})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want reply-lost sentinel", err)
	}
	if hs[1].calls.Load() != 1 {
		t.Fatalf("handler calls = %d, want 1 (request delivered, reply lost)", hs[1].calls.Load())
	}
	st := net.Stats()
	if st.Replies != 0 {
		t.Fatalf("replies = %d, want 0 (lost reply must not be charged)", st.Replies)
	}
}

func TestFaultRuleAppliesPerBroadcastDestination(t *testing.T) {
	net, hs := buildNet(t, Multicast, 4)
	sentinel := errors.New("link down")
	net.SetFaultRule(func(from, to protocol.SiteID, req protocol.Request) (FaultDecision, error) {
		if to == 2 {
			return DropRequest, sentinel
		}
		return Deliver, nil
	})
	res := net.Broadcast(context.Background(), 0, remotes(4, 0), protocol.StatusRequest{})
	if !errors.Is(res[2].Err, sentinel) {
		t.Fatalf("dest 2: %v, want sentinel", res[2].Err)
	}
	for _, id := range []protocol.SiteID{1, 3} {
		if res[id].Err != nil {
			t.Fatalf("dest %v: %v, want nil", id, res[id].Err)
		}
	}
	if hs[2].calls.Load() != 0 {
		t.Fatal("dest 2 handled a dropped request")
	}
	if st := net.Stats(); st.Requests != 1 {
		t.Fatalf("multicast requests = %d, want 1 (drop is per-link, transmission already charged)", st.Requests)
	}
}
