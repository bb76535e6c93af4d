package faultnet

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"relidev/internal/protocol"
	"relidev/internal/scheme"
	"relidev/internal/simnet"
)

// failingHandler answers every request with a plain application error.
type failingHandler struct{}

var errApplication = errors.New("handler rejected the request")

func (failingHandler) Handle(context.Context, protocol.SiteID, protocol.Request) (protocol.Response, error) {
	return nil, fmt.Errorf("deliberate: %w", errApplication)
}

// TestIsTransportErrorClassification verifies that every injected fault
// class reads as a transport failure under scheme.IsTransportError — so
// chaos schedules exercise exactly the §3 missing-answer path — while a
// delivered application error passes through unclassified.
func TestIsTransportErrorClassification(t *testing.T) {
	ctx := context.Background()

	t.Run("dropped request", func(t *testing.T) {
		net, _ := buildSim(t, 2)
		fn, err := New(net, Config{Seed: 7, DropProb: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, err = fn.Call(ctx, 0, 1, protocol.StatusRequest{})
		if !errors.Is(err, protocol.ErrInjected) || !errors.Is(err, protocol.ErrTransient) {
			t.Fatalf("err = %v, want protocol.ErrInjected and ErrTransient", err)
		}
		if !scheme.IsTransportError(err) {
			t.Fatalf("dropped request not a transport error: %v", err)
		}
	})

	t.Run("lost reply", func(t *testing.T) {
		net, hs := buildSim(t, 2)
		fn, err := New(net, Config{Seed: 7, ReplyLossProb: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, err = fn.Call(ctx, 0, 1, protocol.StatusRequest{})
		if !scheme.IsTransportError(err) {
			t.Fatalf("lost reply not a transport error: %v", err)
		}
		if hs[1].calls.Load() != 1 {
			t.Fatal("reply loss must still deliver the request")
		}
	})

	t.Run("call timeout", func(t *testing.T) {
		net, _ := buildSim(t, 2)
		fn, err := New(net, Config{Seed: 7, TimeoutProb: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, err = fn.Call(ctx, 0, 1, protocol.StatusRequest{})
		if !errors.Is(err, protocol.ErrInjected) || !scheme.IsTransportError(err) {
			t.Fatalf("timeout not an injected transport error: %v", err)
		}
	})

	// A crash is the network's own fail-stop (what a chaos schedule's
	// Fail does), not an injected fault.
	t.Run("crash window", func(t *testing.T) {
		net, _ := buildSim(t, 2)
		fn, err := New(net, Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		net.SetUp(1, false)
		_, err = fn.Call(ctx, 0, 1, protocol.StatusRequest{})
		if !errors.Is(err, protocol.ErrSiteDown) || !scheme.IsTransportError(err) {
			t.Fatalf("crash window err = %v, want ErrSiteDown transport error", err)
		}
		if errors.Is(err, protocol.ErrInjected) {
			t.Fatalf("fail-stop crash tagged as injected: %v", err)
		}
	})

	t.Run("partition", func(t *testing.T) {
		net, _ := buildSim(t, 3)
		fn, err := New(net, Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		fn.SetPartition(2, 1)
		_, err = fn.Call(ctx, 0, 2, protocol.StatusRequest{})
		if !errors.Is(err, protocol.ErrSiteUnreachable) || !scheme.IsTransportError(err) {
			t.Fatalf("partition err = %v, want ErrSiteUnreachable transport error", err)
		}
	})

	t.Run("delivered application error passes through", func(t *testing.T) {
		net := simnet.New(simnet.Multicast)
		net.Attach(0, &echoHandler{id: 0})
		net.Attach(1, failingHandler{})
		fn, err := New(net, Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, err = fn.Call(ctx, 0, 1, protocol.StatusRequest{})
		if !errors.Is(err, errApplication) {
			t.Fatalf("err = %v, want the handler's own error", err)
		}
		if errors.Is(err, protocol.ErrInjected) {
			t.Fatalf("application error tagged as injected: %v", err)
		}
		if scheme.IsTransportError(err) {
			t.Fatalf("delivered application error classified as transport failure: %v", err)
		}
	})
}
