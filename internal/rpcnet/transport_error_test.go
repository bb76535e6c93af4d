package rpcnet

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"relidev/internal/block"
	"relidev/internal/protocol"
	"relidev/internal/scheme"
	"relidev/internal/site"
)

// TestIsTransportErrorClassification pins down how every rpcnet failure
// class round-trips through scheme.IsTransportError. The schemes lean
// on the distinction: a transport error is a *missing* answer and may
// be treated as a site failure under §3's fail-stop model, while a
// *delivered* error (the peer answered, unhappily) must be surfaced —
// counting it as a failure could shrink a quorum that is actually
// reachable.
func TestIsTransportErrorClassification(t *testing.T) {
	replicas, addrs := startCluster(t, 2)
	cli, err := NewClient(0, addrs, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx := context.Background()

	t.Run("delivered handler error is not transport", func(t *testing.T) {
		_, err := cli.Fetch(ctx, 0, 1, protocol.FetchRequest{Block: block.Index(testGeom.NumBlocks) + 5})
		if err == nil {
			t.Fatal("fetch of an out-of-range block succeeded")
		}
		if !errors.Is(err, protocol.ErrRemote) {
			t.Fatalf("err = %v, want protocol.ErrRemote: the peer answered", err)
		}
		if scheme.IsTransportError(err) {
			t.Fatalf("delivered error classified as transport failure: %v", err)
		}
	})

	t.Run("delivered sentinel survives the wire unclassified", func(t *testing.T) {
		replicas[1].SetState(protocol.StateComatose)
		defer replicas[1].SetState(protocol.StateAvailable)
		_, err := cli.Call(ctx, 0, 1, protocol.PutRequest{Block: 0, Data: pad("x"), Version: 1})
		if !errors.Is(err, site.ErrComatose) {
			t.Fatalf("err = %v, want ErrComatose across TCP", err)
		}
		if errors.Is(err, protocol.ErrRemote) {
			t.Fatalf("sentinel decoded as generic remote error: %v", err)
		}
		if scheme.IsTransportError(err) {
			t.Fatalf("comatose answer classified as transport failure: %v", err)
		}
	})

	t.Run("refused connection is transport, conclusively down", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		deadAddr := ln.Addr().String()
		ln.Close()
		dead, err := NewClient(0, map[protocol.SiteID]string{1: deadAddr}, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer dead.Close()
		_, err = dead.Call(ctx, 0, 1, protocol.StatusRequest{})
		if !errors.Is(err, protocol.ErrSiteDown) {
			t.Fatalf("err = %v, want ErrSiteDown", err)
		}
		if !scheme.IsTransportError(err) {
			t.Fatalf("refused connection not classified as transport failure: %v", err)
		}
	})

	t.Run("unknown peer is transport", func(t *testing.T) {
		_, err := cli.Call(ctx, 0, 7, protocol.StatusRequest{})
		if !errors.Is(err, protocol.ErrSiteDown) {
			t.Fatalf("err = %v, want ErrSiteDown for an unconfigured peer", err)
		}
		if !scheme.IsTransportError(err) {
			t.Fatalf("unconfigured peer not classified as transport failure: %v", err)
		}
	})

	t.Run("caller cancellation is not evidence against the peer", func(t *testing.T) {
		cctx, cancel := context.WithCancel(ctx)
		cancel()
		_, err := cli.Call(cctx, 0, 1, protocol.StatusRequest{})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if scheme.IsTransportError(err) {
			t.Fatalf("caller's own cancellation classified as transport failure: %v", err)
		}
		if cli.SuspectSet().Has(1) {
			t.Fatal("cancellation put a healthy peer on the suspect list")
		}
	})
}
