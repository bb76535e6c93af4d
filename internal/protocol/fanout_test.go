package protocol

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
)

// fanReq and fanResp borrow a real message's sealed methods and keep
// types of their own.
type fanReq struct{ StatusRequest }

func (fanReq) Kind() string { return "fan" }

type fanResp struct {
	PutReply
	from SiteID
}

// goid names the calling goroutine (test-only: parsed from the stack
// header "goroutine N [").
func goid() string {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	return string(b[:bytes.IndexByte(b[len("goroutine "):], ' ')+len("goroutine ")])
}

// callerFunc adapts a function to Caller.
type callerFunc func(ctx context.Context, from, to SiteID, req Request) (Response, error)

func (f callerFunc) Call(ctx context.Context, from, to SiteID, req Request) (Response, error) {
	return f(ctx, from, to, req)
}

func TestFanOutEveryTargetGetsOneSlot(t *testing.T) {
	// The sender appears among the destinations and must be skipped.
	for n := 0; n <= 12; n++ {
		dests := []SiteID{0}
		for i := 1; i <= n; i++ {
			dests = append(dests, SiteID(i))
		}
		var calls [MaxSites]int
		errOdd := errors.New("odd")
		res := FanOut(context.Background(), 0, dests, fanReq{}, callerFunc(func(_ context.Context, from, to SiteID, _ Request) (Response, error) {
			calls[to]++
			if to%2 == 1 {
				return nil, errOdd
			}
			return fanResp{from: to}, nil
		}))
		if len(res) != n {
			t.Fatalf("n=%d: %d results", n, len(res))
		}
		if calls[0] != 0 {
			t.Fatalf("n=%d: the sender was called", n)
		}
		for i := 1; i <= n; i++ {
			to := SiteID(i)
			if c := calls[to]; c != 1 {
				t.Fatalf("n=%d: target %v called %d times", n, to, c)
			}
			r, ok := res[to]
			switch {
			case !ok:
				t.Fatalf("n=%d: no result for %v", n, to)
			case i%2 == 1 && (r.Err != errOdd || r.Resp != nil):
				t.Fatalf("n=%d: %v = %+v, want errOdd", n, to, r)
			case i%2 == 0 && (r.Err != nil || r.Resp != fanResp{from: to}):
				t.Fatalf("n=%d: %v = %+v, want its own reply", n, to, r)
			}
		}
	}
}

func TestFanOutCancelledContextCallsNobody(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := FanOut(ctx, 0, []SiteID{0, 1, 2, 3}, fanReq{}, callerFunc(func(context.Context, SiteID, SiteID, Request) (Response, error) {
		t.Error("called despite a cancelled context")
		return nil, nil
	}))
	if len(res) != 3 {
		t.Fatalf("%d results, want 3", len(res))
	}
	for to, r := range res {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("%v: err = %v, want context.Canceled", to, r.Err)
		}
	}
}

// FanOut runs every leg on the caller's goroutine, one after another,
// in the order the destinations were given.
func TestFanOutRunsEveryLegOnTheCaller(t *testing.T) {
	for _, dests := range [][]SiteID{{1}, {0, 1}, {4, 0, 2, 3, 1}} {
		caller := goid()
		var order []SiteID
		FanOut(context.Background(), 0, dests, fanReq{}, callerFunc(func(_ context.Context, _, to SiteID, _ Request) (Response, error) {
			if g := goid(); g != caller {
				t.Errorf("dests %v: target %v ran on %s, caller is %s", dests, to, g, caller)
			}
			order = append(order, to)
			return fanResp{from: to}, nil
		}))
		var want []SiteID
		for _, to := range dests {
			if to != 0 {
				want = append(want, to)
			}
		}
		if len(order) != len(want) {
			t.Fatalf("dests %v: ran %v, want %v", dests, order, want)
		}
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("dests %v: ran %v, want %v", dests, order, want)
			}
		}
	}
}

// fanRecorder is a PhaseRecorder on a clock the test advances.
type fanRecorder struct {
	now    int64
	rtt    map[SiteID]int64
	phases map[string]int64
}

func (r *fanRecorder) Now() int64                         { return r.now }
func (r *fanRecorder) RecordPhase(phase string, ns int64) { r.phases[phase] += ns }
func (r *fanRecorder) RecordPeerRTT(to SiteID, ns int64)  { r.rtt[to] = ns }
func (r *fanRecorder) FanOutStart() int64                 { return r.now }
func (r *fanRecorder) FanOutEnd(int64)                    {}

func newFanRecorder() (*fanRecorder, context.Context) {
	rec := &fanRecorder{rtt: map[SiteID]int64{}, phases: map[string]int64{}}
	return rec, &OpNode{context.Background(), OpScope{Op: OpRead, Phases: rec}}
}

func TestFanOutChargesTheRecorder(t *testing.T) {
	// 1, 2, 3 run one after another, each moving the clock by its step,
	// so each is charged its own step, and the slowest (2, 20) took 13
	// longer than the second-slowest (1, 7).
	rec, ctx := newFanRecorder()
	step := map[SiteID]int64{3: 5, 1: 7, 2: 20}
	FanOut(ctx, 0, []SiteID{1, 2, 3}, fanReq{}, callerFunc(func(_ context.Context, _, to SiteID, _ Request) (Response, error) {
		rec.now += step[to]
		return fanResp{from: to}, nil
	}))
	if len(rec.rtt) != len(step) {
		t.Fatalf("peer RTTs = %v, want %v", rec.rtt, step)
	}
	for to, d := range step {
		if rec.rtt[to] != d {
			t.Fatalf("peer RTTs = %v, want %v", rec.rtt, step)
		}
	}
	if got := rec.phases[PhaseStraggler]; got != 13 || len(rec.phases) != 1 {
		t.Fatalf("phases = %v, want only straggler=13", rec.phases)
	}

	// A single target has a round trip but no straggler.
	rec, ctx = newFanRecorder()
	FanOut(ctx, 0, []SiteID{4}, fanReq{}, callerFunc(func(context.Context, SiteID, SiteID, Request) (Response, error) {
		rec.now += 9
		return fanResp{from: 4}, nil
	}))
	if len(rec.rtt) != 1 || rec.rtt[4] != 9 || len(rec.phases) != 0 {
		t.Fatalf("single target: rtt %v phases %v, want {4:9} and none", rec.rtt, rec.phases)
	}

	// A labelled but unattributed operation carries no recorder: the
	// fan-out still runs and has nobody to charge.
	res := FanOut(WithOp(context.Background(), OpRead), 0, []SiteID{1, 2}, fanReq{}, callerFunc(func(_ context.Context, _, to SiteID, _ Request) (Response, error) {
		return fanResp{from: to}, nil
	}))
	if len(res) != 2 {
		t.Fatalf("unattributed fan-out: %v", res)
	}
}
