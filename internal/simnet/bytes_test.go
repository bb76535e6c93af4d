package simnet

import (
	"context"
	"testing"

	"relidev/internal/block"
	"relidev/internal/protocol"
)

func TestByteAccountingCall(t *testing.T) {
	net, _ := buildNet(t, Multicast, 2)
	req := protocol.VoteRequest{Block: 1}
	if _, err := net.Call(context.Background(), 0, 1, req); err != nil {
		t.Fatal(err)
	}
	want := uint64(protocol.WireSize(req) + protocol.WireSize(protocol.StatusReply{}))
	if got := net.Stats().Bytes; got != want {
		t.Fatalf("bytes = %d, want %d", got, want)
	}
}

func TestByteAccountingMulticastVsUnicast(t *testing.T) {
	// The same logical broadcast ships its payload once on a multicast
	// network and once per destination with unique addressing.
	req := protocol.PutRequest{Block: 0, Data: make([]byte, 512), Version: 1}
	reqSize := uint64(protocol.WireSize(req))

	mc, _ := buildNet(t, Multicast, 4)
	mc.Notify(context.Background(), 0, remotes(4, 0), req)
	if got := mc.Stats().Bytes; got != reqSize {
		t.Fatalf("multicast bytes = %d, want %d", got, reqSize)
	}

	uc, _ := buildNet(t, Unicast, 4)
	uc.Notify(context.Background(), 0, remotes(4, 0), req)
	if got := uc.Stats().Bytes; got != 3*reqSize {
		t.Fatalf("unicast bytes = %d, want %d", got, 3*reqSize)
	}
}

func TestWireSizeGrowsWithPayload(t *testing.T) {
	small := protocol.WireSize(protocol.PutRequest{Data: make([]byte, 16)})
	big := protocol.WireSize(protocol.PutRequest{Data: make([]byte, 4096)})
	if big-small != 4080 {
		t.Fatalf("put sizes %d and %d do not differ by the payload", small, big)
	}
	rec := protocol.RecoveryReply{
		Vector: block.NewVector(4),
		Blocks: []protocol.BlockCopy{{Data: make([]byte, 100)}},
	}
	if protocol.WireSize(rec) <= 100 {
		t.Fatalf("recovery reply size %d too small", protocol.WireSize(rec))
	}
}
