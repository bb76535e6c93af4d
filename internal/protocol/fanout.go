package protocol

import "context"

// A Caller performs one leg of a fan-out: the round trip to a single
// destination. Every Transport is one.
type Caller interface {
	Call(ctx context.Context, from, to SiteID, req Request) (Response, error)
}

// FanOut is the broadcast loop of a transport (DESIGN.md §7): it sends
// req through via to every site of dests except from (a self-send is a
// local operation), one leg after another on the caller's goroutine in
// destination order, and returns each result. Only the result map
// allocates. A context already cancelled reports that for every target
// without calling via. When ctx carries a PhaseRecorder, FanOut charges
// it each target's round trip and the straggler wait, on the recorder's
// clock — facts only the fan-out can see. Consecutive legs share their
// boundary reading, so n legs read the clock n times past the
// recorder's FanOutStart, and the round trips add up to the fan-out.
func FanOut(ctx context.Context, from SiteID, dests []SiteID, req Request, via Caller) map[SiteID]Result {
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
	// Every leg runs before any is charged; the straggler wait is how
	// much longer the slowest leg took than the second-slowest: were the
	// legs concurrent, what a smaller quorum would save.
	rec := CtxPhases(ctx)
	var dur [MaxSites]int64
	var at int64 // the newest boundary: the start of the next leg
	if rec != nil {
		at = rec.FanOutStart()
	}
	for i, to := range targets {
		var r Result
		r.Resp, r.Err = via.Call(ctx, from, to, req)
		if rec != nil {
			end := rec.Now()
			dur[i], at = end-at, end
		}
		out[to] = r
	}
	if rec == nil {
		return out
	}
	rec.FanOutEnd(at)
	max, second := int64(-1), int64(-1)
	for i, to := range targets {
		d := dur[i]
		rec.RecordPeerRTT(to, d)
		switch {
		case d > max:
			second, max = max, d
		case d > second:
			second = d
		}
	}
	if len(targets) > 1 {
		rec.RecordPhase(PhaseStraggler, max-second)
	}
	return out
}
