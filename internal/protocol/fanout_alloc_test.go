//go:build !race

package protocol

import (
	"context"
	"testing"
)

// noAllocLegs answers every leg without allocating: a pointer converts
// to Caller for free, and so does a fanResp holding 0 to Response.
type noAllocLegs struct{}

func (*noAllocLegs) Call(context.Context, SiteID, SiteID, Request) (Response, error) {
	return fanResp{}, nil
}

// One FanOut over four targets allocates exactly:
//
//	2  the result map (header + its one group) — Transport's signature
//	1  the fan-out state: what the legs share, with the slots inline
//	3  one closure per spawned leg; the fourth leg runs on the caller
//
// FanOutInOrder spawns nothing and keeps its slots on the stack, so it
// allocates the result map alone. The race detector's instrumentation
// allocates, hence the build tag.
func TestFanOutAllocBudget(t *testing.T) {
	ctx, dests, legs := context.Background(), []SiteID{0, 1, 2, 3, 4}, &noAllocLegs{}
	var req Request = fanReq{}
	if got := testing.AllocsPerRun(200, func() { FanOut(ctx, 0, dests, req, legs) }); got != 6 {
		t.Fatalf("FanOut over 4 targets: %v allocations, budget is exactly 6", got)
	}
	// A single target spawns nothing and keeps its state on the stack.
	if got := testing.AllocsPerRun(200, func() { FanOut(ctx, 0, dests[:2], req, legs) }); got != 2 {
		t.Fatalf("FanOut over 1 target: %v allocations, budget is exactly 2 (the result map)", got)
	}
	for _, n := range []int{1, 4} {
		if got := testing.AllocsPerRun(200, func() { FanOutInOrder(ctx, 0, dests[:n+1], req, legs) }); got != 2 {
			t.Fatalf("FanOutInOrder over %d targets: %v allocations, budget is exactly 2 (the result map)", n, got)
		}
	}
}
