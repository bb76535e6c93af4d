//go:build !race

package rpcnet

import (
	"context"
	"testing"
	"time"

	"relidev/internal/block"
	"relidev/internal/protocol"
	"relidev/internal/site"
	"relidev/internal/store"
)

// TestBroadcastAllocBudget pins what one warmed-up broadcast of a
// VoteRequest to four loopback peers allocates, client and server
// together (the count is process-wide):
//
//	2  the result map (header + its one group) — Transport's signature
//	4  each server's decoded VoteRequest boxed into protocol.Request
//	4  each server's VoteReply boxed into protocol.Response by Handle
//	4  each decoded VoteReply boxed into protocol.Response, client side
//
// The client encodes the request once, into a pooled stream's buffer,
// and reads the replies on the caller's goroutine; each side reads and
// writes through its connection's buffers, and a server's span node is
// its connection's. The caller boxes the request before the broadcast.
// Block 300 is an index Go cannot box for free (it can below 256). The
// race detector's instrumentation allocates, hence the build tag.
func TestBroadcastAllocBudget(t *testing.T) {
	geom := block.Geometry{BlockSize: 32, NumBlocks: 512}
	addrs := make(map[protocol.SiteID]string)
	for id := protocol.SiteID(1); id <= 4; id++ {
		st, err := store.NewMem(geom)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := site.New(site.Config{ID: id, Store: st})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := Serve("127.0.0.1:0", rep)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[id] = srv.Addr()
	}
	cli, err := NewClient(0, addrs, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx, dests := context.Background(), []protocol.SiteID{0, 1, 2, 3, 4}
	var req protocol.Request = protocol.VoteRequest{Block: 300}
	broadcast := func() {
		for id, r := range cli.Broadcast(ctx, 0, dests, req) {
			if r.Err != nil {
				t.Fatalf("leg %v: %v", id, r.Err)
			}
		}
	}
	broadcast()
	if got := testing.AllocsPerRun(200, broadcast); got != 14 {
		t.Fatalf("broadcast to 4 peers: %v allocations, budget is exactly 14", got)
	}
}
