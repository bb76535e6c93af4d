//go:build !race

package protocol

import (
	"context"
	"testing"
)

// noAllocLegs answers every leg without allocating: a pointer converts
// to Caller for free, and so does a zero fanResp to Response.
type noAllocLegs struct{}

func (*noAllocLegs) Call(context.Context, SiteID, SiteID, Request) (Response, error) {
	return fanResp{}, nil
}

// FanOut runs its legs on the caller's goroutine and keeps their slots
// on the stack, so over one target or four it allocates exactly 2: the
// result map (header + its one group) — Transport's signature. The race
// detector's instrumentation allocates, hence the build tag.
func TestFanOutAllocBudget(t *testing.T) {
	ctx, dests, legs := context.Background(), []SiteID{0, 1, 2, 3, 4}, &noAllocLegs{}
	var req Request = fanReq{}
	for _, n := range []int{1, 4} {
		if got := testing.AllocsPerRun(200, func() { FanOut(ctx, 0, dests[:n+1], req, legs) }); got != 2 {
			t.Fatalf("FanOut over %d targets: %v allocations, budget is exactly 2 (the result map)", n, got)
		}
	}
}
