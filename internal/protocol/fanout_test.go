package protocol

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

type fanReq struct{}

func (fanReq) Kind() string { return "fan" }

type fanResp struct{ from SiteID }

func (fanResp) RespKind() string { return "fan-reply" }

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

// fanOuts are the two entry points, which share everything but the
// spawning: each contract below holds for both.
var fanOuts = []struct {
	name string
	fan  func(ctx context.Context, from SiteID, dests []SiteID, req Request, via Caller) map[SiteID]Result
}{{"concurrent", FanOut}, {"in-order", FanOutInOrder}}

func TestFanOutEveryTargetGetsOneSlot(t *testing.T) {
	// 1..12 exercises both the inline slots and the spilled slice; the
	// sender appears among the destinations and must be skipped.
	for _, fo := range fanOuts {
		for n := 0; n <= 12; n++ {
			dests := []SiteID{0}
			for i := 1; i <= n; i++ {
				dests = append(dests, SiteID(i))
			}
			var calls [MaxSites]atomic.Int32
			errOdd := errors.New("odd")
			res := fo.fan(context.Background(), 0, dests, fanReq{}, callerFunc(func(_ context.Context, from, to SiteID, _ Request) (Response, error) {
				calls[to].Add(1)
				if to%2 == 1 {
					return nil, errOdd
				}
				return fanResp{to}, nil
			}))
			if len(res) != n {
				t.Fatalf("%s n=%d: %d results", fo.name, n, len(res))
			}
			if calls[0].Load() != 0 {
				t.Fatalf("%s n=%d: the sender was called", fo.name, n)
			}
			for i := 1; i <= n; i++ {
				to := SiteID(i)
				if c := calls[to].Load(); c != 1 {
					t.Fatalf("%s n=%d: target %v called %d times", fo.name, n, to, c)
				}
				r, ok := res[to]
				switch {
				case !ok:
					t.Fatalf("%s n=%d: no result for %v", fo.name, n, to)
				case i%2 == 1 && (r.Err != errOdd || r.Resp != nil):
					t.Fatalf("%s n=%d: %v = %+v, want errOdd", fo.name, n, to, r)
				case i%2 == 0 && (r.Err != nil || r.Resp != fanResp{to}):
					t.Fatalf("%s n=%d: %v = %+v, want its own reply", fo.name, n, to, r)
				}
			}
		}
	}
}

func TestFanOutCancelledContextCallsNobody(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, fo := range fanOuts {
		res := fo.fan(ctx, 0, []SiteID{0, 1, 2, 3}, fanReq{}, callerFunc(func(context.Context, SiteID, SiteID, Request) (Response, error) {
			t.Errorf("%s: called despite a cancelled context", fo.name)
			return nil, nil
		}))
		if len(res) != 3 {
			t.Fatalf("%s: %d results, want 3", fo.name, len(res))
		}
		for to, r := range res {
			if !errors.Is(r.Err, context.Canceled) {
				t.Fatalf("%s: %v: err = %v, want context.Canceled", fo.name, to, r.Err)
			}
		}
	}
}

// The last target always runs on the caller's goroutine; with a single
// target that is the only leg, so nothing is spawned.
func TestFanOutLastLegRunsInline(t *testing.T) {
	for _, dests := range [][]SiteID{{1}, {0, 1}, {1, 2, 3, 4}} {
		caller, last := goid(), dests[len(dests)-1]
		var mu sync.Mutex
		ran := map[SiteID]string{}
		FanOut(context.Background(), 0, dests, fanReq{}, callerFunc(func(_ context.Context, _, to SiteID, _ Request) (Response, error) {
			mu.Lock()
			ran[to] = goid()
			mu.Unlock()
			return fanResp{to}, nil
		}))
		for to, g := range ran {
			if (g == caller) != (to == last) {
				t.Errorf("dests %v: target %v ran on %s, caller is %s", dests, to, g, caller)
			}
		}
	}
}

// The in-order path runs every leg on the caller's goroutine, one after
// another, in the order the destinations were given.
func TestFanOutInOrderRunsEveryLegOnTheCaller(t *testing.T) {
	for _, dests := range [][]SiteID{{1}, {0, 1}, {4, 0, 2, 3, 1}} {
		caller := goid()
		var order []SiteID
		FanOutInOrder(context.Background(), 0, dests, fanReq{}, callerFunc(func(_ context.Context, _, to SiteID, _ Request) (Response, error) {
			if g := goid(); g != caller {
				t.Errorf("dests %v: target %v ran on %s, caller is %s", dests, to, g, caller)
			}
			order = append(order, to)
			return fanResp{to}, nil
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
	now    atomic.Int64
	mu     sync.Mutex
	rtt    map[SiteID]int64
	phases map[string]int64
}

func (r *fanRecorder) Now() int64 { return r.now.Load() }
func (r *fanRecorder) RecordPhase(phase string, ns int64) {
	r.mu.Lock()
	r.phases[phase] += ns
	r.mu.Unlock()
}
func (r *fanRecorder) RecordPeerRTT(to SiteID, ns int64) {
	r.mu.Lock()
	r.rtt[to] = ns
	r.mu.Unlock()
}

func newFanRecorder() (*fanRecorder, context.Context) {
	rec := &fanRecorder{rtt: map[SiteID]int64{}, phases: map[string]int64{}}
	return rec, &OpNode{context.Background(), OpScope{Op: OpRead, Phases: rec}}
}

// wantCharges checks the recorder holds exactly these round trips and
// this straggler wait.
func (r *fanRecorder) wantCharges(t *testing.T, name string, rtt map[SiteID]int64, straggler int64) {
	t.Helper()
	if len(r.rtt) != len(rtt) {
		t.Fatalf("%s: peer RTTs = %v, want %v", name, r.rtt, rtt)
	}
	for to, d := range rtt {
		if r.rtt[to] != d {
			t.Fatalf("%s: peer RTTs = %v, want %v", name, r.rtt, rtt)
		}
	}
	if got := r.phases[PhaseStraggler]; got != straggler || len(r.phases) != 1 {
		t.Fatalf("%s: phases = %v, want only straggler=%d", name, r.phases, straggler)
	}
}

func TestFanOutChargesTheRecorder(t *testing.T) {
	// Concurrent: every leg starts at t=0 (the barrier holds them until
	// all have read the clock), then they finish in the order 3, 1, 2,
	// each moving the clock: 3 ends at 5, 1 at 12, 2 at 32. The slowest
	// (2) finished 20 after the second-slowest (1).
	rec, ctx := newFanRecorder()
	var started sync.WaitGroup
	started.Add(3)
	turn := map[SiteID]chan struct{}{3: make(chan struct{}), 1: make(chan struct{}), 2: make(chan struct{})}
	next := map[SiteID]SiteID{3: 1, 1: 2}
	step := map[SiteID]int64{3: 5, 1: 7, 2: 20}
	close(turn[3])
	FanOut(ctx, 0, []SiteID{1, 2, 3}, fanReq{}, callerFunc(func(_ context.Context, _, to SiteID, _ Request) (Response, error) {
		started.Done()
		started.Wait()
		<-turn[to]
		rec.now.Add(step[to])
		if n, ok := next[to]; ok {
			close(turn[n])
		}
		return fanResp{to}, nil
	}))
	rec.wantCharges(t, "concurrent", map[SiteID]int64{3: 5, 1: 12, 2: 32}, 20)

	// In order: 1, 2, 3 run one after another with the same steps, so
	// each is charged its own step, and the slowest (2, 20) took 13
	// longer than the second-slowest (1, 7).
	rec, ctx = newFanRecorder()
	FanOutInOrder(ctx, 0, []SiteID{1, 2, 3}, fanReq{}, callerFunc(func(_ context.Context, _, to SiteID, _ Request) (Response, error) {
		rec.now.Add(step[to])
		return fanResp{to}, nil
	}))
	rec.wantCharges(t, "in-order", step, 13)

	for _, fo := range fanOuts {
		// A single target has a round trip but no straggler.
		rec, ctx = newFanRecorder()
		fo.fan(ctx, 0, []SiteID{4}, fanReq{}, callerFunc(func(context.Context, SiteID, SiteID, Request) (Response, error) {
			rec.now.Add(9)
			return fanResp{4}, nil
		}))
		if len(rec.rtt) != 1 || rec.rtt[4] != 9 || len(rec.phases) != 0 {
			t.Fatalf("%s single target: rtt %v phases %v, want {4:9} and none", fo.name, rec.rtt, rec.phases)
		}

		// A labelled but unattributed operation carries no recorder: the
		// fan-out still runs and has nobody to charge.
		res := fo.fan(WithOp(context.Background(), OpRead), 0, []SiteID{1, 2}, fanReq{}, callerFunc(func(_ context.Context, _, to SiteID, _ Request) (Response, error) {
			return fanResp{to}, nil
		}))
		if len(res) != 2 {
			t.Fatalf("%s unattributed fan-out: %v", fo.name, res)
		}
	}
}
