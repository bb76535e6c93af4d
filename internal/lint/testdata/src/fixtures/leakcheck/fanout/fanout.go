// Seeded mutation for leakcheck: a fan-out that spawns one goroutine per
// leg, the shape a broadcast takes where each leg waits on a network,
// with the join (st.wg.Wait()) deleted. The caller then reads slots the
// spawned legs may not have written yet, and a leg stuck on a dead peer
// outlives the broadcast. The analyzer must flag the spawn.
//
// The mutant lives alone in its package: leakcheck proves a join by the
// WaitGroup field, package-wide, so a faithful copy's Wait on the same
// field would vouch for the mutant as well.
package fanout

import (
	"context"
	"sync"

	"relidev/internal/protocol"
)

type Caller interface {
	Call(ctx context.Context, from, to protocol.SiteID, req protocol.Request) (protocol.Response, error)
}

const inlineLegs = 8

type fanLeg struct {
	res protocol.Result
}

type fanCall struct {
	ctx  context.Context
	via  Caller
	from protocol.SiteID
	req  protocol.Request
}

type legGroup struct {
	fanCall
	wg     sync.WaitGroup
	legs   []fanLeg
	inline [inlineLegs]fanLeg
}

func FanOut(ctx context.Context, from protocol.SiteID, targets []protocol.SiteID, req protocol.Request, via Caller) map[protocol.SiteID]protocol.Result {
	out := make(map[protocol.SiteID]protocol.Result, len(targets))
	if len(targets) == 0 {
		return out
	}
	last := len(targets) - 1
	st := &legGroup{fanCall: fanCall{ctx: ctx, via: via, from: from, req: req}}
	if st.legs = st.inline[:]; len(targets) > inlineLegs {
		st.legs = make([]fanLeg, len(targets))
	}
	st.wg.Add(last)
	for i, to := range targets[:last] {
		go func() { // want "goroutine has no provable join or cancellation path"
			defer st.wg.Done()
			st.legs[i] = st.leg(to)
		}()
	}
	st.legs[last] = st.leg(targets[last])
	// Mutant: st.wg.Wait() deleted.
	for i, to := range targets {
		out[to] = st.legs[i].res
	}
	return out
}

func (c *fanCall) leg(to protocol.SiteID) (l fanLeg) {
	l.res.Resp, l.res.Err = c.via.Call(c.ctx, c.from, to, c.req)
	return l
}
