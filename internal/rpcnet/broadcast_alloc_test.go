//go:build !race

package rpcnet

import (
	"context"
	"errors"
	"net"
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

// TestBackedOffLegAllocBudget pins a broadcast to one live peer and one
// the failure detector already holds down (it refused a connection, and
// its redial is backed off). The down leg fails at once with the error
// its pool built when it was made, so the round costs what the live leg
// costs and nothing more:
//
//	2  the result map (header + its one group)
//	1  the live server's decoded VoteRequest boxed into protocol.Request
//	1  its VoteReply boxed into protocol.Response by Handle
//	1  the decoded VoteReply boxed into protocol.Response, client side
//
// The backoff is set far beyond the run so no redial falls inside it.
func TestBackedOffLegAllocBudget(t *testing.T) {
	geom := block.Geometry{BlockSize: 32, NumBlocks: 512}
	st, err := store.NewMem(geom)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := site.New(site.Config{ID: 1, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve("127.0.0.1:0", rep)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refusing := ln.Addr().String()
	ln.Close() // nothing listens there now: every dial is refused
	cli, err := NewClient(0, map[protocol.SiteID]string{1: srv.Addr(), 2: refusing}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cli.cfg.retryBase, cli.cfg.retryMax = time.Hour, time.Hour
	defer cli.Close()
	ctx, dests := context.Background(), []protocol.SiteID{0, 1, 2}
	var req protocol.Request = protocol.VoteRequest{Block: 300}
	broadcast := func() {
		res := cli.Broadcast(ctx, 0, dests, req)
		if err := res[1].Err; err != nil {
			t.Fatalf("live leg: %v", err)
		}
		if err := res[2].Err; !errors.Is(err, protocol.ErrSiteDown) {
			t.Fatalf("down leg: %v, want ErrSiteDown", err)
		}
	}
	broadcast() // the refused dial puts site 2 on the suspect list
	if !cli.SuspectSet().Has(2) {
		t.Fatal("the refusing peer is not suspected down")
	}
	if got := testing.AllocsPerRun(200, broadcast); got != 5 {
		t.Fatalf("broadcast to a live and a backed-off peer: %v allocations, budget is exactly 5", got)
	}
}
