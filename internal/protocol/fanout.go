package protocol

import (
	"context"
	"sync"
)

// A Caller performs one leg of a fan-out: the round trip to a single
// destination. Every Transport is one.
type Caller interface {
	Call(ctx context.Context, from, to SiteID, req Request) (Response, error)
}

// fanInline is how many slots a fan-out's state holds inline: the paper
// analyses n <= 8; a wider group takes a second allocation for them.
const fanInline = 8

// fanLeg is one target's slot: its result and, for an attributed
// operation, its round-trip time.
type fanLeg struct {
	res Result
	dur int64
}

// fanCall is what every leg of one fan-out needs.
type fanCall struct {
	ctx  context.Context
	rec  PhaseRecorder
	via  Caller
	from SiteID
	req  Request
}

// fanState is what the spawned legs of one fan-out share. Each leg
// writes only its own slot, so the slots need no lock; the WaitGroup
// orders those writes before the join reads them.
type fanState struct {
	fanCall
	wg     sync.WaitGroup
	legs   []fanLeg
	inline [fanInline]fanLeg
}

// FanOut is the broadcast loop of a transport whose legs wait on a
// network (DESIGN.md §7): it sends req through via to every site of
// dests except from (a self-send is a local operation) concurrently and
// returns each result. The last target is delivered on the caller's
// goroutine, which would otherwise only wait: n targets cost n-1
// goroutines. A context already cancelled reports that for every target
// without calling via. When ctx carries a PhaseRecorder, FanOut charges
// it each target's round trip and the straggler wait, on the recorder's
// clock — facts only the fan-out can see.
func FanOut(ctx context.Context, from SiteID, dests []SiteID, req Request, via Caller) map[SiteID]Result {
	return fanOut(ctx, from, dests, req, via, false)
}

// FanOutInOrder is FanOut for a transport whose legs wait on nothing
// (simnet's in-process Handle calls): every leg runs on the caller's
// goroutine, in destination order, and only the result map allocates.
func FanOutInOrder(ctx context.Context, from SiteID, dests []SiteID, req Request, via Caller) map[SiteID]Result {
	return fanOut(ctx, from, dests, req, via, true)
}

func fanOut(ctx context.Context, from SiteID, dests []SiteID, req Request, via Caller, inOrder bool) map[SiteID]Result {
	var buf [MaxSites]SiteID
	targets := buf[:0]
	for _, to := range dests {
		if to != from {
			targets = append(targets, to)
		}
	}
	out := make(map[SiteID]Result, len(targets))
	if err := ctx.Err(); err != nil || len(targets) == 0 {
		for _, to := range targets {
			out[to] = Result{Err: err}
		}
		return out
	}
	call := fanCall{ctx: ctx, rec: CtxPhases(ctx), via: via, from: from, req: req}
	last := len(targets) - 1
	if inOrder || last == 0 {
		var slots [MaxSites]fanLeg
		for i, to := range targets {
			slots[i] = call.leg(to)
		}
		call.join(targets, slots[:len(targets)], out)
		return out
	}
	st := &fanState{fanCall: call}
	if st.legs = st.inline[:]; len(targets) > fanInline {
		st.legs = make([]fanLeg, len(targets))
	}
	st.wg.Add(last)
	for i, to := range targets[:last] {
		go func() {
			defer st.wg.Done()
			st.legs[i] = st.leg(to)
		}()
	}
	st.legs[last] = st.leg(targets[last])
	st.wg.Wait()
	st.join(targets, st.legs, out)
	return out
}

// leg runs the round trip to one target.
func (c *fanCall) leg(to SiteID) (l fanLeg) {
	var t0 int64
	if c.rec != nil {
		t0 = c.rec.Now()
	}
	l.res.Resp, l.res.Err = c.via.Call(c.ctx, c.from, to, c.req)
	if c.rec != nil {
		l.dur = c.rec.Now() - t0
	}
	return l
}

// join moves the slots into the result map and charges the recorder.
// The straggler wait is how much longer the slowest leg took than the
// second-slowest: with concurrent legs, what a smaller quorum saves.
func (c *fanCall) join(targets []SiteID, legs []fanLeg, out map[SiteID]Result) {
	max, second := int64(-1), int64(-1)
	for i, to := range targets {
		out[to] = legs[i].res
		if c.rec == nil {
			continue
		}
		d := legs[i].dur
		c.rec.RecordPeerRTT(to, d)
		switch {
		case d > max:
			second, max = max, d
		case d > second:
			second = d
		}
	}
	if c.rec != nil && len(targets) > 1 {
		c.rec.RecordPhase(PhaseStraggler, max-second)
	}
}
