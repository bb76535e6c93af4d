package rpcnet

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"relidev/internal/protocol"
	"relidev/internal/scheme"
)

// TestSeveredExchangeClassification: a peer that accepts the TCP dial
// and then kills the stream mid-exchange must produce an error that
// wraps protocol.ErrSevered — the request may have reached the peer, so
// the outcome of the exchange is unknown — while remaining a transport
// error of the same severity the failure detector would otherwise
// assign (ErrTransient below the suspect threshold).
func TestSeveredExchangeClassification(t *testing.T) {
	// A listener that accepts connections and slams them shut: the dial
	// succeeds, the exchange dies.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()

	cli, err := NewClient(0, map[protocol.SiteID]string{1: ln.Addr().String()}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	_, err = cli.Fetch(context.Background(), 0, 1, protocol.FetchRequest{Block: 0})
	if err == nil {
		t.Fatal("fetch over a slammed stream succeeded")
	}
	if !errors.Is(err, protocol.ErrSevered) {
		t.Fatalf("severed exchange = %v, want it to wrap ErrSevered", err)
	}
	// The refinement must not change the severity classification the
	// schemes rely on: still a transport error, still transient on a
	// first failure.
	if !errors.Is(err, protocol.ErrTransient) {
		t.Fatalf("severed exchange = %v, want ErrTransient severity on first failure", err)
	}
	if !scheme.IsTransportError(err) {
		t.Fatalf("severed exchange = %v, not recognised as a transport error", err)
	}
}

// TestDialFailureIsNotSevered: a peer that never accepts produces a
// plain transport error — no ErrSevered, because no stream was ever
// established, so no request can have reached the peer.
func TestDialFailureIsNotSevered(t *testing.T) {
	cli, err := NewClient(0, map[protocol.SiteID]string{1: "127.0.0.1:1"}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_, err = cli.Fetch(context.Background(), 0, 1, protocol.FetchRequest{})
	if err == nil {
		t.Fatal("fetch to a dead address succeeded")
	}
	if errors.Is(err, protocol.ErrSevered) {
		t.Fatalf("dial failure = %v, must not claim a severed stream", err)
	}
	if !scheme.IsTransportError(err) {
		t.Fatalf("dial failure = %v, not recognised as a transport error", err)
	}
}
