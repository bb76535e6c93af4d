package obs_test

import (
	"context"
	"testing"
	"time"

	"relidev/internal/obs"
	"relidev/internal/protocol"
	"relidev/internal/rpcnet"
	"relidev/internal/simnet"
)

// voter answers every request with a vote.
type voter struct{}

func (voter) Handle(context.Context, protocol.SiteID, protocol.Request) (protocol.Response, error) {
	return protocol.VoteReply{Version: 1}, nil
}

// TestFanOutPartitionExact: metered ops that each fan out to four peers
// on the wall clock are attributed in full. Their phase partition sums
// to their end-to-end latency exactly, and the fan-out phase is what the
// transport's latency series measured. Over simnet the legs run in
// order and share their boundaries with the decorator, so the peers'
// round trips add up to the fan-out exactly. Over rpcnet the legs
// overlap and no loop reports an end, so the decorator reads its own.
func TestFanOutPartitionExact(t *testing.T) {
	dests := []protocol.SiteID{0, 1, 2, 3, 4}
	sim := simnet.New(simnet.Multicast)
	addrs := map[protocol.SiteID]string{}
	for _, id := range dests[1:] {
		sim.Attach(id, voter{})
		srv, err := rpcnet.Serve("127.0.0.1:0", voter{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[id] = srv.Addr()
	}
	rpc, err := rpcnet.NewClient(0, addrs, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rpc.Close() })

	for _, tc := range []struct {
		name      string
		inner     protocol.Transport
		legsAddUp bool
	}{{"simnet", sim, true}, {"rpcnet", rpc, false}} {
		t.Run(tc.name, func(t *testing.T) {
			o := obs.New()
			s := o.SchemeSite("voting", 0)
			tr := obs.WrapTransport(o, tc.name, tc.inner, dests)
			for range 50 {
				ctx, sp := s.StartOp(context.Background(), new(obs.Scope), protocol.OpRead, 1, s.Now())
				for to, res := range tr.Broadcast(ctx, 0, dests, protocol.VoteRequest{Block: 1}) {
					if res.Err != nil {
						t.Fatalf("leg to %v: %v", to, res.Err)
					}
				}
				sp.Done(len(dests), nil)
			}
			p := o.CriticalPath()
			if len(p.Ops) != 1 || p.Ops[0].Count != 50 {
				t.Fatalf("profile = %+v, want one aggregate of 50 reads", p.Ops)
			}
			op := p.Ops[0]
			if op.PartitionNs != op.TotalNs {
				t.Errorf("partition %d ns, end-to-end %d ns: want them equal", op.PartitionNs, op.TotalNs)
			}
			var fanout uint64
			for _, ph := range op.Phases {
				if ph.Phase == protocol.PhaseFanout {
					fanout = ph.TotalNs
				}
			}
			var latency, rtts uint64
			for _, h := range o.Snapshot().Histograms {
				switch {
				case h.Name == obs.MetricTransportLatency && h.Labels["method"] == "broadcast":
					latency += h.Sum
				case h.Name == obs.MetricPeerRTT:
					rtts += h.Sum
				}
			}
			if fanout == 0 || latency != fanout {
				t.Errorf("fan-out phase %d ns, transport latency %d ns: want them equal and non-zero", fanout, latency)
			}
			if tc.legsAddUp && rtts != fanout {
				t.Errorf("peer round trips sum to %d ns, fan-out phase %d ns: want them equal", rtts, fanout)
			}
		})
	}
}
